// Package monitor rebuilds the paper's monitoring plane (§3.5): a
// monitoring host that "recovers all calculated md5sums and data gathered
// from the local sensors every 20 minutes", authenticating with per-host
// keys (the SSH public-key stand-in in internal/wire) and moving only new
// file content (the rsync algorithm in internal/delta).
//
// Each monitored host runs an Agent exporting a FileStore of append-only
// logs; the Collector mirrors every agent's store and synchronises it once
// per collection round. Agent and Collector speak a small framed protocol
// over a wire.Session and therefore run the same frames over an in-memory
// loopback (inside the simulation), a net.Pipe (InProcessDialer) or real
// TCP sockets (cmd/collectord and cmd/nodeagent). Sessions span rounds:
// the simulation keeps one InProcessSession per host from its first
// collection until it goes offline, and a FleetCollector with a
// PoolConfig parks its sessions between rounds. An InProcessSession keeps
// no goroutine: its agent serves each frame on the collector's goroutine
// when the collector reads.
package monitor

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"frostlab/internal/delta"
	"frostlab/internal/wire"
)

// CollectionPeriod is the paper's cadence: every 20 minutes.
const CollectionPeriod = 20 * time.Minute

// Standard log names used by the experiment.
const (
	// MD5Log records one line per workload cycle.
	MD5Log = "md5sums.log"
	// SensorLog records lm-sensors and S.M.A.R.T. readings.
	SensorLog = "sensors.log"
)

// FileStore is a set of named append-only files. It is safe for concurrent
// use, since a TCP agent serves collections while the host keeps logging.
// The views From returns never change: an append writes only past every
// view's capacity, and a write that is not an append writes to a new
// backing array.
type FileStore struct {
	mu    sync.Mutex
	files map[string][]byte
	// gens counts each file's writes that were not appends (Put,
	// truncating Splice). A reader that summarised a prefix of a file at
	// one generation knows the summary still holds while the file's
	// generation is unchanged: appends never alter bytes already written.
	gens map[string]uint64
}

// NewFileStore returns an empty store.
func NewFileStore() *FileStore {
	return &FileStore{files: make(map[string][]byte), gens: make(map[string]uint64)}
}

// Append adds data to the named file, creating it if needed.
func (fs *FileStore) Append(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = append(fs.files[name], data...)
}

// Get returns a copy of the named file's content (nil if absent).
func (fs *FileStore) Get(name string) []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if data, ok := fs.files[name]; ok {
		return append([]byte(nil), data...)
	}
	return nil
}

// From returns a read-only view of the named file's content from byte off
// on, together with the file's generation at the time of the read. ok is
// false when the file (empty if absent) is shorter than off. The view is
// not a copy, but no later write changes it; its capacity ends at its
// length, so an append to it copies. A caller must not write to it.
func (fs *FileStore) From(name string, off int) (suffix []byte, gen uint64, ok bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data := fs.files[name]
	if off < 0 || off > len(data) {
		return nil, fs.gens[name], false
	}
	return data[off:len(data):len(data)], fs.gens[name], true
}

// generation returns the named file's generation.
func (fs *FileStore) generation(name string) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.gens[name]
}

// Put replaces the named file's content.
func (fs *FileStore) Put(name string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = append([]byte(nil), data...)
	fs.gens[name]++
}

// Splice truncates the named file to off bytes and appends data, creating
// the file if needed. off beyond the file's end is an error. At the file's
// end it is an Append; a Splice that truncates keeps the bytes before off
// where they are but writes data to a new backing array, since a view
// From returned may still hold the bytes it replaces.
func (fs *FileStore) Splice(name string, off int, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cur := fs.files[name]
	if off < 0 || off > len(cur) {
		return fmt.Errorf("monitor: splice at %d outside %s of %d bytes", off, name, len(cur))
	}
	if off < len(cur) {
		fs.gens[name]++
		cur = cur[:off:off] // the next append copies
	}
	fs.files[name] = append(cur, data...)
	return nil
}

// Names returns the sorted file names.
func (fs *FileStore) Names() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]string, 0, len(fs.files))
	for n := range fs.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Size returns the named file's length.
func (fs *FileStore) Size(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files[name])
}

// Protocol frame types. Values 3 and 7 belonged to the retired
// whole-file and offset signature frames and are not reused.
const (
	ftList     byte = 1 // collector -> agent: list files
	ftListResp byte = 2 // agent -> collector: newline-joined names
	ftDelta    byte = 4 // agent -> collector: name + delta
	ftBye      byte = 5 // collector -> agent: round complete
	ftError    byte = 6 // agent -> collector: error text
	// ftPing/ftPong are the keepalive health check: before reusing a
	// pooled session the collector round-trips a ping, so a connection
	// that died while parked (agent restart, injected pool fault) is
	// retired and redialled instead of failing the round's first frame.
	ftPing byte = 8
	ftPong byte = 9
	// ftAppend is the append-verify request (rsync's --append-verify):
	// name + 8-byte agent-file offset + md5 of the agent file's bytes
	// before that offset + the signature of the mirror's bytes from that
	// offset on. The agent diffs only its content past the offset, once
	// the prefix digest matches.
	ftAppend byte = 10
	// ftStale answers an append request whose prefix did not verify —
	// the file shrank or was rewritten — with just the name. The
	// collector then resends the file at offset 0.
	ftStale byte = 11
)

// appendHeader is the fixed part of an append request after the name:
// the offset and the prefix digest.
const appendHeader = 8 + md5.Size

// ErrRemote carries an agent-reported error.
var ErrRemote = errors.New("monitor: remote error")

// appendNamed appends a length-prefixed name to dst; the named payload
// follows it.
func appendNamed(dst []byte, name string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(name)))
	return append(dst, name...)
}

// decodeNamed splits a named payload.
func decodeNamed(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("monitor: named payload too short (%d bytes)", len(p))
	}
	n := int(binary.BigEndian.Uint16(p[:2]))
	if 2+n > len(p) {
		return "", nil, fmt.Errorf("monitor: name of %d bytes exceeds payload", n)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

// appendRequest appends an append request's payload to dst, growing dst
// at most once.
func appendRequest(dst []byte, name string, off int, prefix [md5.Size]byte, sig *delta.Signature) []byte {
	dst = slices.Grow(dst, 2+len(name)+appendHeader+sig.MarshalSize())
	dst = appendNamed(dst, name)
	dst = binary.BigEndian.AppendUint64(dst, uint64(off))
	dst = append(dst, prefix[:]...)
	return sig.AppendMarshal(dst)
}

// Agent exports a host's FileStore to the collector.
type Agent struct {
	hostID string
	store  *FileStore

	mu sync.Mutex
	// prefixes hold one running md5 per file, advanced to the offsets the
	// collector asks about, so verifying a prefix costs only the bytes
	// appended since the previous round.
	prefixes map[string]*prefixHash
}

// prefixHash is the md5 of a file's first n bytes, valid while the
// store's generation is still gen, and the running summary of the file's
// bytes from tailOff on, valid while the store's generation is still
// tailGen: appends alone leave both unchanged.
type prefixHash struct {
	h   hash.Hash
	n   int
	gen uint64
	// sum is h's digest buffer, kept here so that verifying a prefix
	// does not cost a heap allocation.
	sum [md5.Size]byte

	tail    delta.Running
	tailOff int
	tailGen uint64
}

// NewAgent returns an agent serving the given store.
func NewAgent(hostID string, store *FileStore) *Agent {
	return &Agent{hostID: hostID, store: store, prefixes: make(map[string]*prefixHash)}
}

// Store returns the agent's file store.
func (a *Agent) Store() *FileStore { return a.store }

// Serve answers collector requests on the session until a bye frame or a
// transport error. It returns nil on a clean bye.
func (a *Agent) Serve(sess *wire.Session) error {
	var reply []byte
	for {
		if bye, err := a.serveFrame(sess, &reply); bye || err != nil {
			return err
		}
	}
}

// serveFrame receives one collector request and sends its reply: Serve's
// loop body, which an InProcessSession also runs one frame at a time. A
// delta or stale reply is built in *reply, which grows to the largest
// reply and is kept for the session's next frame: one agent may serve
// several sessions at once. bye reports a clean bye; after a bye or an
// error the session carries no more frames.
func (a *Agent) serveFrame(sess *wire.Session, reply *[]byte) (bye bool, err error) {
	ft, payload, err := sess.Recv()
	if err != nil {
		return false, fmt.Errorf("monitor: agent %s receiving: %w", a.hostID, err)
	}
	switch ft {
	case ftList:
		return false, sess.Send(ftListResp, []byte(strings.Join(a.store.Names(), "\n")))
	case ftAppend:
		name, d, err := a.appendDelta(payload)
		if err != nil {
			return false, sess.Send(ftError, []byte(err.Error()))
		}
		*reply = appendNamed((*reply)[:0], name)
		if d == nil {
			return false, sess.Send(ftStale, *reply)
		}
		*reply = d.AppendMarshal(*reply)
		return false, sess.Send(ftDelta, *reply)
	case ftPing:
		return false, sess.Send(ftPong, nil)
	case ftBye:
		return true, nil
	default:
		return false, sess.Send(ftError, []byte(fmt.Sprintf("unknown frame type %d", ft)))
	}
}

// appendDelta answers one append request: the delta of the file's content
// past the requested offset against the collector's tail signature, or a
// nil delta when the file's prefix does not match the collector's digest.
// The delta's literals alias a view of that content in the store.
func (a *Agent) appendDelta(payload []byte) (string, *delta.Delta, error) {
	name, p, err := decodeNamed(payload)
	if err != nil {
		return "", nil, err
	}
	if len(p) < appendHeader {
		return name, nil, fmt.Errorf("monitor: append request of %d bytes, want at least %d", len(p), appendHeader)
	}
	off := binary.BigEndian.Uint64(p)
	var want [md5.Size]byte
	copy(want[:], p[8:appendHeader])
	sig, err := delta.UnmarshalSignature(p[appendHeader:])
	if err != nil {
		return name, nil, err
	}
	suffix, sum, ok := a.verifiedSuffix(name, off, want)
	if !ok {
		return name, nil, nil
	}
	d, err := delta.Compute(sig, suffix, sum)
	return name, d, err
}

// verifiedSuffix returns the file's content from off on, and its md5, if
// md5 of the file's first off bytes is want. The running prefix hash
// resumes where the previous request left it, unless the store has seen a
// non-append write since (which could have changed bytes already hashed)
// or off lies behind it; then it restarts from byte 0. The running tail
// summary likewise adds only the bytes appended since the previous
// request, and restarts when off or the store's generation moved.
func (a *Agent) verifiedSuffix(name string, off uint64, want [md5.Size]byte) (suffix []byte, sum [md5.Size]byte, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ph := a.prefixes[name]
	if ph == nil {
		ph = &prefixHash{h: md5.New()}
		a.prefixes[name] = ph
	}
	from := ph.n
	if uint64(from) > off {
		from = 0
	}
	data, gen, ok := a.store.From(name, from)
	if from > 0 && (!ok || gen != ph.gen) {
		from = 0
		data, gen, _ = a.store.From(name, 0)
	}
	if from == 0 {
		ph.h.Reset()
		ph.n, ph.gen = 0, gen
	}
	if off-uint64(from) > uint64(len(data)) {
		return nil, sum, false // the file is shorter than the verified prefix
	}
	k := int(off) - from
	ph.h.Write(data[:k])
	ph.n += k
	if ph.h.Sum(ph.sum[:0]); ph.sum != want {
		return nil, sum, false
	}
	suffix = data[k:]
	if ph.tailOff != int(off) || ph.tailGen != gen || ph.tail.Len() > len(suffix) {
		ph.tail.Reset()
		ph.tailOff, ph.tailGen = int(off), gen
	}
	ph.tail.Write(suffix[ph.tail.Len():])
	return suffix, ph.tail.Sum(), true
}

// RoundStats summarises one collection round against one host.
type RoundStats struct {
	HostID string
	At     time.Time
	Files  int
	// LiteralBytes is what actually travelled as new data.
	LiteralBytes int
	// TotalBytes is the mirrored corpus size — what a full copy would
	// have cost.
	TotalBytes int
}

// Savings returns the fraction of bytes the delta transfer avoided.
func (rs RoundStats) Savings() float64 {
	if rs.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(rs.LiteralBytes)/float64(rs.TotalBytes)
}

// recentRounds is how many of the latest completed rounds History
// returns.
const recentRounds = 256

// Collector mirrors the file stores of many hosts.
type Collector struct {
	mu        sync.Mutex
	mirrors   map[string]*FileStore
	blockSize int
	// recent holds the latest completed rounds, oldest first, in a
	// buffer of twice recentRounds that drops its older half when full.
	recent []RoundStats
	// rounds, literal and total count every completed round and its
	// bytes since the collector was made.
	rounds, literal, total int

	// samples, when set, receives every byte appended to a mirror for
	// numeric-sample extraction (see SampleDB).
	samples *SampleDB
	// retain caps each mirrored file's raw bytes; 0 means unbounded.
	retain int
	// files hold the append-verify baseline of every mirrored file.
	files map[fileKey]*mirrorState
}

// fileKey names one host's file.
type fileKey struct{ host, name string }

// mirrorState is where one mirrored file stands, in agent-file offsets:
// the mirror holds the agent's bytes from trim on (retention evicted the
// ones before), and prefix is the md5 of the agent's first off bytes, off
// being the end of the mirror's last whole block (or a little past it,
// after an eviction shifted the block grid). A round signs only the
// mirror's bytes past off, and the agent diffs only its bytes past off
// once the prefix verifies. gen is the mirror file's generation after the
// collector's last commit: prefix describes the mirror's bytes only while
// no one else has rewritten them.
type mirrorState struct {
	off, trim int
	prefix    hash.Hash
	// sum is prefix's digest buffer, kept here so that a request does
	// not cost a heap allocation for it.
	sum [md5.Size]byte
	// tail summarises the mirror's bytes from off on while tailOK, and
	// while the mirror's generation is still gen: a round signs the
	// tail and checks its reconstruction from the summary, and adds only
	// the bytes it appended.
	tail   delta.Running
	gen    uint64
	tailOK bool
	// req holds the round's append request while it is sent, and out the
	// reconstructed tail until the mirror has its bytes: buffers a file
	// keeps from round to round, so a warm round allocates neither.
	req, out []byte
}

// keptOut caps the reconstruction buffer a mirrored file keeps between
// rounds. An append round rebuilds at most a block plus the bytes
// appended since the last round; a full resync rebuilds the whole file,
// and keeping that buffer would hold a second copy of the mirror.
const keptOut = 64 << 10

// signTail returns the signature of tail, the mirror's bytes past the
// offset a round asks from, and leaves st.tail summarising tail, or empty
// when tail holds a whole block. kept says st.tail already summarises
// tail; otherwise it is rebuilt. A tail shorter than a block has no block
// the agent can match, so its delta is all literal.
func (st *mirrorState) signTail(tail []byte, kept bool, blockSize int) (*delta.Signature, error) {
	if len(tail) >= blockSize {
		st.tail.Reset() // Apply rebuilds it from the reconstruction
		return delta.NewSignature(tail, blockSize)
	}
	if !kept {
		st.tail.Reset()
		st.tail.Write(tail)
	}
	return st.tail.Signature(blockSize)
}

// NewCollector returns a collector using the given delta block size
// (delta.DefaultBlockSize when 0).
func NewCollector(blockSize int) *Collector {
	if blockSize <= 0 {
		blockSize = delta.DefaultBlockSize
	}
	return &Collector{
		mirrors:   make(map[string]*FileStore),
		blockSize: blockSize,
		files:     make(map[fileKey]*mirrorState),
	}
}

// WithSamples attaches a sample plane: every byte newly appended to a
// mirror is also parsed for numeric samples and stored compressed. It
// returns the collector for chaining.
func (c *Collector) WithSamples(db *SampleDB) *Collector {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = db
	return c
}

// Samples returns the attached sample plane (nil if none).
func (c *Collector) Samples() *SampleDB {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.samples
}

// SetRetention caps every mirrored file at n raw bytes. When an applied
// round pushes a file past the cap, the oldest bytes are evicted down to
// the cap at a line boundary; later rounds sign and diff only past the
// verified prefix, which never lies before the eviction point, so the
// evicted prefix is never re-transferred. n <= 0 disables the cap.
// Already-ingested samples are unaffected: eviction is what makes mirrors
// a bounded working set while the SampleDB keeps the full history in
// compressed form.
func (c *Collector) SetRetention(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.retain = n
}

// MirrorBytes returns the raw bytes currently held across all mirrors —
// the quantity the retention cap bounds.
func (c *Collector) MirrorBytes() int64 {
	c.mu.Lock()
	mirrors := make([]*FileStore, 0, len(c.mirrors))
	for _, m := range c.mirrors {
		mirrors = append(mirrors, m)
	}
	c.mu.Unlock()
	var total int64
	for _, m := range mirrors {
		for _, name := range m.Names() {
			total += int64(m.Size(name))
		}
	}
	return total
}

// Mirror returns the collector's mirror of a host's store, creating it on
// first use.
func (c *Collector) Mirror(hostID string) *FileStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mirrors[hostID]
	if !ok {
		m = NewFileStore()
		c.mirrors[hostID] = m
	}
	return m
}

// History returns the latest completed rounds, oldest first: at most
// recentRounds of them.
func (c *Collector) History() []RoundStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.recent[max(0, len(c.recent)-recentRounds):])
}

// Totals returns how many rounds have completed since the collector was
// made, and the literal and mirrored-corpus bytes they summed to (the
// RoundStats fields of every round).
func (c *Collector) Totals() (rounds, literalBytes, totalBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rounds, c.literal, c.total
}

// CollectHost performs one collection round over an established session:
// list the agent's files, then append-verify each one into the mirror.
// The session is left open; the agent returns from Serve after the bye.
func (c *Collector) CollectHost(sess *wire.Session, hostID string, now time.Time) (RoundStats, error) {
	return c.CollectHostContext(context.Background(), sess, hostID, now)
}

// CollectHostContext is CollectHost under a context: cancellation is
// polled between protocol phases, so a round abandoned by its deadline (or
// a daemon shutting down) stops at the next frame boundary. A session
// blocked inside a read is unblocked by the transport's deadline or by
// closing the underlying connection — both of which FleetCollector does.
func (c *Collector) CollectHostContext(ctx context.Context, sess *wire.Session, hostID string, now time.Time) (RoundStats, error) {
	return c.collectHost(ctx, sess, hostID, now, true)
}

// CollectHostKeepAlive is CollectHostContext without the closing bye
// frame: the session stays open and the agent's Serve loop keeps waiting,
// so the same authenticated connection can carry the next round. It is
// the protocol half of the FleetCollector's connection pool; the bye is
// sent when the pool retires the session.
func (c *Collector) CollectHostKeepAlive(ctx context.Context, sess *wire.Session, hostID string, now time.Time) (RoundStats, error) {
	return c.collectHost(ctx, sess, hostID, now, false)
}

func (c *Collector) collectHost(ctx context.Context, sess *wire.Session, hostID string, now time.Time, bye bool) (RoundStats, error) {
	stats := RoundStats{HostID: hostID, At: now}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	mirror := c.Mirror(hostID)
	if err := sess.Send(ftList, nil); err != nil {
		return stats, err
	}
	ft, payload, err := sess.Recv()
	if err != nil {
		return stats, err
	}
	if ft == ftError {
		return stats, fmt.Errorf("%w: %s", ErrRemote, payload)
	}
	if ft != ftListResp {
		return stats, fmt.Errorf("monitor: unexpected frame %d to list request", ft)
	}
	var names []string
	if len(payload) > 0 {
		names = splitLines(string(payload))
	}
	c.mu.Lock()
	samples, retain := c.samples, c.retain
	c.mu.Unlock()
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		literal, size, err := c.syncFile(sess, hostID, name, mirror, samples, retain)
		if err != nil {
			return stats, err
		}
		stats.Files++
		stats.LiteralBytes += literal
		stats.TotalBytes += size
	}
	if bye {
		if err := sess.Send(ftBye, nil); err != nil {
			return stats, err
		}
	}
	c.mu.Lock()
	switch len(c.recent) {
	case 0:
		c.recent = make([]RoundStats, 0, 2*recentRounds)
	case 2 * recentRounds:
		c.recent = append(c.recent[:0], c.recent[recentRounds:]...)
	}
	c.recent = append(c.recent, stats)
	c.rounds++
	c.literal += stats.LiteralBytes
	c.total += stats.TotalBytes
	c.mu.Unlock()
	return stats, nil
}

// syncFile brings one mirrored file up to date and returns the literal
// bytes that travelled and the agent-side file size. It asks for the
// file's bytes past the verified prefix; if the agent reports that prefix
// stale, or the mirror was rewritten by someone other than the collector
// since its last commit, it asks again from offset 0 against the whole
// mirror. The file's state changes only once the delta has been applied,
// so a round cut anywhere leaves the next round starting from the same
// baseline.
func (c *Collector) syncFile(sess *wire.Session, hostID, name string, mirror *FileStore, samples *SampleDB, retain int) (literal, size int, err error) {
	key := fileKey{hostID, name}
	c.mu.Lock()
	st := c.files[key]
	if st == nil {
		st = &mirrorState{prefix: md5.New()}
		c.files[key] = st
	}
	off, trim, prefix := st.off, st.trim, st.prefix
	// st.tail is this round's to extend or rebuild, and the next round's
	// again only once this one commits.
	tailOK, mirrorGen := st.tailOK, st.gen
	st.tailOK = false
	c.mu.Unlock()

	var tail []byte
	var gen uint64
	var d *delta.Delta
	for {
		var ok bool
		tail, gen, ok = mirror.From(name, off-trim)
		kept := ok && tailOK && gen == mirrorGen && st.tail.Len() == len(tail)
		tailOK = false // a full resync signs other bytes
		// A foreign write may have changed mirror bytes before off, which
		// the prefix digest of the agent's bytes cannot see.
		if ok && (off == 0 || gen == mirrorGen) {
			sig, err := st.signTail(tail, kept, c.blockSize)
			if err != nil {
				return 0, 0, err
			}
			prefix.Sum(st.sum[:0])
			st.req = appendRequest(st.req[:0], name, off, st.sum, sig)
			if d, err = c.requestAppend(sess, name, st.req); err != nil {
				return 0, 0, err
			}
			if d != nil {
				break
			}
		}
		if off == 0 && trim == 0 {
			return 0, 0, fmt.Errorf("monitor: %s/%s: agent reported offset 0 stale", hostID, name)
		}
		// Full resync: the whole mirror is only a basis for the
		// signature, and the reply rebuilds the whole agent file.
		off, trim, prefix = 0, 0, md5.New()
	}
	// d's literals alias the session's receive buffer; Apply consumes them
	// before the next Recv.
	newTail, err := delta.Apply(st.out[:0], tail, d, &st.tail)
	if err != nil {
		return 0, 0, fmt.Errorf("monitor: applying delta for %s/%s: %w", hostID, name, err)
	}
	st.out = nil
	if cap(newTail) <= keptOut {
		// The mirror, Ingest and Replay copy what they keep of newTail, so
		// the next round may reuse its buffer.
		st.out = newTail
	}
	base := off - trim // the tail's position in the mirror
	// An append leaves the mirror's generation, and so st.tail, valid.
	appended := bytes.HasPrefix(newTail, tail)
	keepTail := appended
	if appended {
		mirror.Append(name, newTail[len(tail):])
	} else if err := mirror.Splice(name, base, newTail); err != nil {
		return 0, 0, err
	}
	if samples != nil {
		if base+len(tail) > 0 && appended {
			// Append-only logs grow in place; parse only the new bytes.
			samples.Ingest(hostID, name, newTail[len(tail):])
		} else {
			// No append baseline (a file's first sync — possibly after
			// a restart with a restored sample checkpoint — or a
			// rewritten file): replay the whole mirror and let
			// timestamps dedupe against what the store already holds.
			whole, _, _ := mirror.From(name, 0)
			samples.Replay(hostID, name, whole)
		}
	}
	size = off + len(newTail)
	if retain > 0 && size-trim > retain {
		// Evict whole lines only, so the retained suffix always starts
		// at a line start (and stays parseable on replay).
		rest, _, _ := mirror.From(name, size-trim-retain-1)
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			rest = rest[i+1:]
		} else {
			rest = nil
		}
		mirror.Put(name, rest)
		trim = size - len(rest)
		keepTail = false // the next round signs the evicted mirror afresh
	}
	newOff := trim + (size-trim)/c.blockSize*c.blockSize
	if newOff < off {
		newOff = off // an eviction shifted the block grid; md5 cannot rewind
	}
	prefix.Write(newTail[:newOff-off])
	if keepTail && newOff > off {
		st.tail.Reset()
		st.tail.Write(newTail[newOff-off:])
	}
	gen = mirror.generation(name)
	c.mu.Lock()
	st.off, st.trim, st.prefix = newOff, trim, prefix
	st.gen, st.tailOK = gen, keepTail
	c.mu.Unlock()
	return d.LiteralBytes(), size, nil
}

// requestAppend sends one append request for the named file, built by
// appendRequest with the digest of the agent's first off bytes and the
// signature of the mirror's tail from off on, and returns the agent's
// delta, or nil if the agent reports the prefix stale. The delta's
// literals alias the reply frame, which is valid only until the session's
// next Recv.
func (c *Collector) requestAppend(sess *wire.Session, name string, req []byte) (*delta.Delta, error) {
	if err := sess.Send(ftAppend, req); err != nil {
		return nil, err
	}
	ft, payload, err := sess.Recv()
	if err != nil {
		return nil, err
	}
	switch ft {
	case ftDelta, ftStale:
	case ftError:
		return nil, fmt.Errorf("%w: %s: %s", ErrRemote, name, payload)
	default:
		return nil, fmt.Errorf("monitor: unexpected frame %d to append request", ft)
	}
	rname, body, err := decodeNamed(payload)
	if err != nil {
		return nil, err
	}
	if rname != name {
		return nil, fmt.Errorf("monitor: reply for %q, requested %q", rname, name)
	}
	if ft == ftStale {
		return nil, nil
	}
	return delta.UnmarshalDelta(body)
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
