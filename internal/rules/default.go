package rules

// DefaultRuleSet is the rule file collectord ships with (-rules
// default). It covers the failure classes the E13/E14/E15 studies
// exercise: quiet sensors, collection-coverage loss, ingest shedding,
// breaker trips, pool churn, and the paper's environmental safety
// envelope. Rules over live gauges that a given embedding does not
// register (e.g. $tent_temp under collectord, $breakers_open inside the
// simulator) simply stay inactive.
const DefaultRuleSet = `# frostlab default alert & SLO rules
# Grammar: DESIGN.md § alerting model.
envelope low=2 high=30 dew=17 rhmax=85

# A host whose cpu series stops advancing for 45m has a dead sensor
# loop or an unreachable agent.
alert sensor_stale absent(*/cpu,45m) for 20m severity page

# Fleet collection coverage (gap-ledger accounting) below 90%.
alert coverage_drop value($coverage) < 0.9 for 10m severity page

# The bounded ingest queue started dropping rounds.
alert ingest_shed rate($ingest_shed,30m) > 0 severity warn

# Any circuit breaker open means a host is failing repeatedly.
alert breaker_open value($breakers_open) > 0 for 5m severity warn

# Tent air outside the operating envelope for half an hour.
alert envelope_violation outside_envelope($tent_temp,$tent_rh) for 30m severity page

# Intake surfaces within 1 K of the dew point: condensation imminent.
alert dewpoint_margin_low dewpoint_margin($tent_temp,$tent_rh,$outside_temp) < 1 for 30m severity page

# The closed-loop controller dropped to its fallback policy.
alert control_fallback value($control_fallback) > 0 for 10m severity warn
`

// Default parses DefaultRuleSet.
func Default() *RuleSet { return MustParse(DefaultRuleSet) }
