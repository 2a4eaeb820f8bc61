package campaign

import (
	"context"
	"crypto/md5"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"frostlab/internal/climate"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/econ"
)

// Econ sweep: the E17 study's engine. A sweep cell is one multi-site run
// — a fleet of sites (one per climate family in the set) under one
// placement policy and one price regime. The cross product
// policy × climate-set × price-regime is expanded deterministically, each
// cell seeded from the spec seed WITHOUT the policy (common random
// numbers: policies compete on identical weather and tariff sample
// paths), and the whole sweep digests to a single replay identity.

// SiteSet is one value of the climate axis: a named fleet composition,
// one site per climate family.
type SiteSet struct {
	// Name labels the set in cells and tables.
	Name string
	// Climates are scenario-library family names; each becomes a site.
	Climates []string
}

// pairedTariff is the price-regime value meaning "each climate keeps its
// geographically paired tariff" (Helsinki on hydro, desert on a solar
// duck curve, and so on) rather than a uniform tariff across the fleet.
const pairedTariff = "paired"

// pairing maps each climate family to the tariff its geography suggests.
var pairing = map[string]string{
	"helsinki":    "nordic-hydro",
	"desert":      "solar-duck",
	"tropical":    "coal-peaker",
	"coastal-fog": "solar-duck",
	"monsoon":     "coal-peaker",
}

// EconSpec configures an econ sweep.
type EconSpec struct {
	// Seed is the master seed. Weather and tariff streams derive from it
	// plus the cell's set and regime — but not its policy, so policies
	// face identical sample paths.
	Seed string
	// Days is each cell's horizon; 0 selects 28.
	Days int
	// HostsPerSite sizes every site; 0 selects 9.
	HostsPerSite int
	// Policies is the placement-policy axis; empty selects every
	// registered policy (control.Policies).
	Policies []string
	// Sets is the climate axis; empty selects the two default fleets
	// (continental: helsinki/desert/tropical; coastal:
	// helsinki/coastal-fog/monsoon).
	Sets []SiteSet
	// Tariffs is the price-regime axis; empty selects {paired, flat}.
	// "paired" keeps each climate's geographic tariff; any econ tariff
	// name applies that tariff fleet-wide.
	Tariffs []string
	// Progress, when non-nil, is called after each completed cell.
	Progress func(done, total int, cell *EconCell)
}

// DefaultEconSpec is the full E17 sweep: every policy over two fleets and
// two price regimes, 28 days.
func DefaultEconSpec(seed string) EconSpec {
	return EconSpec{Seed: seed}
}

func (s *EconSpec) withDefaults() EconSpec {
	out := *s
	if out.Days == 0 {
		out.Days = 28
	}
	if out.HostsPerSite == 0 {
		out.HostsPerSite = 9
	}
	if len(out.Policies) == 0 {
		for _, p := range control.Policies() {
			out.Policies = append(out.Policies, p.Name)
		}
	}
	if len(out.Sets) == 0 {
		out.Sets = []SiteSet{
			{Name: "continental", Climates: []string{"helsinki", "desert", "tropical"}},
			{Name: "coastal", Climates: []string{"helsinki", "coastal-fog", "monsoon"}},
		}
	}
	if len(out.Tariffs) == 0 {
		out.Tariffs = []string{pairedTariff, "flat"}
	}
	return out
}

// Validate rejects specs that would build invalid cells.
func (s *EconSpec) Validate() error {
	d := s.withDefaults()
	if d.Seed == "" {
		return fmt.Errorf("campaign: econ spec needs a seed")
	}
	if d.Days < 1 {
		return fmt.Errorf("campaign: econ horizon %d days out of range", d.Days)
	}
	for _, p := range d.Policies {
		if _, err := control.NewSitePolicy(p, 1); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	// Only the paired regime looks climates up in the pairing table; a
	// sweep over uniform tariffs accepts any climate family.
	paired := slices.Contains(d.Tariffs, pairedTariff)
	seen := map[string]bool{}
	for _, set := range d.Sets {
		if set.Name == "" {
			return fmt.Errorf("campaign: unnamed site set")
		}
		if seen[set.Name] {
			return fmt.Errorf("campaign: duplicate site set %q", set.Name)
		}
		seen[set.Name] = true
		if len(set.Climates) == 0 {
			return fmt.Errorf("campaign: site set %q has no climates", set.Name)
		}
		for _, c := range set.Climates {
			if _, err := climate.Lookup(c); err != nil {
				return fmt.Errorf("campaign: set %q: %w", set.Name, err)
			}
			if paired && pairing[c] == "" {
				return fmt.Errorf("campaign: set %q: climate %q has no paired tariff", set.Name, c)
			}
		}
	}
	for _, tf := range d.Tariffs {
		if tf == pairedTariff {
			continue
		}
		if _, err := econ.LookupTariff(tf); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	return nil
}

// EconCell is one completed cell of the sweep.
type EconCell struct {
	// Policy, Set, and Tariff name the cell's axes; Label joins them.
	Policy string
	Set    string
	Tariff string
	Label  string
	// Result is the cell's full multi-site outcome.
	Result *core.FleetResult
}

// EconSummary is a finished econ sweep.
type EconSummary struct {
	Seed  string
	Days  int
	Cells []EconCell
}

// Digest hashes every cell's replay digest (with its label) into the
// sweep's replay identity: the quantity the CI econ gate double-runs.
func (s *EconSummary) Digest() string {
	sweep, _ := s.Digests()
	return sweep
}

// Digests returns the sweep digest together with the cell digests it
// hashes, in cell order, computing each cell's once.
func (s *EconSummary) Digests() (sweep string, cells []string) {
	h := md5.New()
	cells = make([]string, len(s.Cells))
	for i := range s.Cells {
		c := &s.Cells[i]
		cells[i] = c.Result.Digest()
		io.WriteString(h, c.Label)
		io.WriteString(h, "=")
		io.WriteString(h, cells[i])
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%x", h.Sum(nil)), cells
}

// Cell returns the cell with the given axes, or nil.
func (s *EconSummary) Cell(policy, set, tariff string) *EconCell {
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Policy == policy && c.Set == set && c.Tariff == tariff {
			return c
		}
	}
	return nil
}

// Advantage reports, for each (set, tariff) pair, the cost-per-cycle edge
// of the named policy over the baseline: positive means the policy is
// cheaper. Pairs missing either cell are skipped. Keys are
// "set/tariff", returned sorted for stable iteration.
func (s *EconSummary) Advantage(policy, baseline string) ([]string, map[string]float64) {
	out := map[string]float64{}
	for i := range s.Cells {
		c := &s.Cells[i]
		if c.Policy != policy {
			continue
		}
		b := s.Cell(baseline, c.Set, c.Tariff)
		if b == nil {
			continue
		}
		out[c.Set+"/"+c.Tariff] = b.Result.CostPerCycle() - c.Result.CostPerCycle()
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, out
}

// econConfig builds one cell's MultiSiteConfig. The seed folds in the set
// and tariff regime but deliberately not the policy.
func (s *EconSpec) econConfig(set SiteSet, tariff, policy string) core.MultiSiteConfig {
	d := s.withDefaults()
	cfg := core.DefaultMultiSiteConfig(fmt.Sprintf("%s/econ/%s/%s", d.Seed, set.Name, tariff))
	cfg.End = cfg.Start.AddDate(0, 0, d.Days)
	cfg.Policy = policy
	cfg.Sites = cfg.Sites[:0]
	for _, c := range set.Climates {
		tf := tariff
		if tf == pairedTariff {
			tf = pairing[c]
		}
		cfg.Sites = append(cfg.Sites, core.SiteConfig{
			Name:    c,
			Climate: c,
			Tariff:  tf,
			Hosts:   d.HostsPerSite,
		})
	}
	return cfg
}

// RunEcon executes the sweep: RunEconContext without cancellation.
func RunEcon(spec EconSpec) (*EconSummary, error) { return RunEconContext(context.Background(), spec) }

// RunEconContext executes the sweep. Cells run sequentially in
// cross-product order (policy outermost, then set, then tariff) — each
// cell is itself deterministic at any GOMAXPROCS, so the sweep digest is
// too. ctx is checked before each cell; once it is done, the sweep stops
// with ctx.Err().
func RunEconContext(ctx context.Context, spec EconSpec) (*EconSummary, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := spec.withDefaults()
	total := len(d.Policies) * len(d.Sets) * len(d.Tariffs)
	sum := &EconSummary{Seed: d.Seed, Days: d.Days, Cells: make([]EconCell, 0, total)}
	for _, policy := range d.Policies {
		for _, set := range d.Sets {
			for _, tariff := range d.Tariffs {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				cfg := d.econConfig(set, tariff, policy)
				eng, err := core.NewMultiSite(cfg)
				if err != nil {
					return nil, fmt.Errorf("campaign: econ cell %s/%s/%s: %w", policy, set.Name, tariff, err)
				}
				r, err := eng.Run()
				if err != nil {
					return nil, fmt.Errorf("campaign: econ cell %s/%s/%s: %w", policy, set.Name, tariff, err)
				}
				cell := EconCell{
					Policy: policy,
					Set:    set.Name,
					Tariff: tariff,
					Label:  strings.Join([]string{policy, set.Name, tariff}, "/"),
					Result: r,
				}
				sum.Cells = append(sum.Cells, cell)
				if d.Progress != nil {
					d.Progress(len(sum.Cells), total, &sum.Cells[len(sum.Cells)-1])
				}
			}
		}
	}
	return sum, nil
}
