// Package netsim simulates the physical network underneath the overlay.
//
// Overlay nodes live at points ("addresses") of a metric space. Every
// simulated message is charged its metric distance and counted, both on a
// per-operation Cost tracker and on network-wide counters, so experiments
// can report hops, latency (metric distance) and message complexity exactly.
// The network also tracks liveness — messages to departed or failed nodes
// fail — and carries a virtual clock (epochs) for soft-state expiry.
//
// The simulator is deliberately synchronous: algorithms are written in RPC
// style and every cross-node call passes through Network.Send, which is the
// single point of cost accounting and failure injection. Concurrency is
// real (operations may run on many goroutines), so the dynamic-membership
// machinery is exercised under genuine interleavings.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"tapestry/internal/metric"
	"tapestry/internal/stats"
)

// Addr is a point index in the underlying metric space.
type Addr int

// ErrUnreachable is returned when a message targets a dead or never-attached
// address.
var ErrUnreachable = errors.New("netsim: destination unreachable")

// sendError is the failure Send returns: a message from -> to that was not
// delivered because the destination is down (verdictDeliver: the network let
// it through), the link is cut by a partition, or the message was lost. It
// matches ErrUnreachable under errors.Is. Failed probes are routine under
// churn (every heartbeat to a corpse produces one), so the text is built only
// if somebody asks for it.
type sendError struct {
	from, to Addr
	verdict  sendVerdict
}

func (e *sendError) Error() string {
	why := ""
	switch e.verdict {
	case verdictBlocked:
		why = " (partitioned)"
	case verdictLost:
		why = " (message lost)"
	}
	return fmt.Sprintf("%v: %d -> %d%s", ErrUnreachable, e.from, e.to, why)
}

func (e *sendError) Unwrap() error { return ErrUnreachable }

// Cost is the ledger of one logical operation (a lookup, a join, a
// multicast...): the messages, routing hops and metric distance it spent. A
// nil *Cost is valid everywhere and records nothing, which keeps hot paths
// free of conditionals at call sites.
//
// Ownership rule: a ledger belongs to one operation and is touched by one
// goroutine at a time. Its fields are plain — charging a message is three
// ordinary adds, not three locked instructions — and there is no ledger two
// goroutines may write at once: an operation that fans out gives each branch
// its own ledger and Merges them when the branches have joined, the TCP
// server keeps one per connection and ships it back in the reply header, and
// the event engine resumes one operation at a time. (The counters were
// atomics until every caller was found to follow the rule already: with the
// atomics removed, `go test -race ./...` stayed green in every package; the
// only failures were the two tests that shared one ledger between goroutines
// on purpose.) What IS shared between operations — the network-wide message
// count — lives on the Network, striped (see countSent).
type Cost struct {
	messages int
	hops     int
	distance float64

	// Virtual-time stamps (event-driven backend only): the event clock at
	// the op's first charged message and at its latest delivery. Their
	// difference is the op's end-to-end latency in virtual time — something
	// the direct-call backend cannot measure, because no time passes there.
	vset   bool
	vbegin float64
	vend   float64

	// stripe, when non-zero, is one more than the index of the Network
	// counter stripe this ledger's messages are counted on (UseStripe); zero
	// counts them by sender address. It is the ledger's identity, not part of
	// its total: Reset keeps it and Merge does not carry it over.
	stripe uint8
}

// nextStripe deals counter stripes to ledgers round-robin. It is touched when
// a long-lived ledger is made (a pooled operation bundle's), never on the
// message path.
var nextStripe atomic.Uint32

// UseStripe gives the ledger a counter stripe of its own, kept across Reset:
// every message charged to it is counted on that one stripe of the Network
// rather than on the sender's. An operation roams senders, but its ledger
// stays with its goroutine, so the stripe's cache line does too. Worth it for
// a ledger that is recycled across many operations; any ledger works without.
func (c *Cost) UseStripe() {
	c.stripe = uint8(nextStripe.Add(1)%sentStripes) + 1
}

// Add charges one message of the given distance; hop indicates whether the
// message advances an application-level routing path (true) or is auxiliary
// traffic such as an acknowledgment (false).
func (c *Cost) Add(distance float64, hop bool) {
	if c == nil {
		return
	}
	c.messages++
	if hop {
		c.hops++
	}
	c.distance += distance
}

// Charge adds a whole sub-total at once: what a peer's handler spent on the
// far side of a socket, reported back in the reply.
func (c *Cost) Charge(messages, hops int, distance float64) {
	if c == nil {
		return
	}
	c.messages += messages
	c.hops += hops
	c.distance += distance
}

// Reset zeroes c's totals, so one Cost can meter request after request. The
// counter stripe, if it has one, stays.
func (c *Cost) Reset() {
	*c = Cost{stripe: c.stripe}
}

// Stamp records the event clock against the op: the first stamp fixes the
// op's virtual start, every stamp advances its virtual end. The event-driven
// backend stamps each message's send and delivery times; direct-call
// execution never stamps (no virtual time passes).
func (c *Cost) Stamp(t float64) {
	if c == nil {
		return
	}
	if !c.vset {
		c.vset, c.vbegin = true, t
	}
	if c.vend < t {
		c.vend = t
	}
}

// VirtualSpan returns the op's virtual start and end times; ok is false when
// the op never ran under an event engine (direct-call mode).
func (c *Cost) VirtualSpan() (begin, end float64, ok bool) {
	if c == nil || !c.vset {
		return 0, 0, false
	}
	return c.vbegin, c.vend, true
}

// VirtualLatency returns the op's end-to-end latency in virtual time (zero
// under the direct-call backend).
func (c *Cost) VirtualLatency() float64 {
	begin, end, ok := c.VirtualSpan()
	if !ok {
		return 0
	}
	return end - begin
}

// Merge folds other into c (used when a sub-operation keeps its own ledger).
func (c *Cost) Merge(other *Cost) {
	if c == nil || other == nil {
		return
	}
	c.Charge(other.Snapshot())
	if begin, end, ok := other.VirtualSpan(); ok {
		// Widen c's span rather than re-stamping: the sub-operation may have
		// started before (or ended after) anything c has seen.
		if !c.vset || begin < c.vbegin {
			c.vset, c.vbegin = true, begin
		}
		c.Stamp(end)
	}
}

// Snapshot returns (messages, hops, distance).
func (c *Cost) Snapshot() (messages, hops int, distance float64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.messages, c.hops, c.distance
}

// Messages returns the message count so far.
func (c *Cost) Messages() int { m, _, _ := c.Snapshot(); return m }

// Hops returns the routing-hop count so far.
func (c *Cost) Hops() int { _, h, _ := c.Snapshot(); return h }

// Distance returns the total metric distance traversed so far.
func (c *Cost) Distance() float64 { _, _, d := c.Snapshot(); return d }

func (c *Cost) String() string {
	m, h, d := c.Snapshot()
	return fmt.Sprintf("msgs=%d hops=%d dist=%.3f", m, h, d)
}

// Network is the simulated substrate shared by all overlay nodes of one
// experiment.
//
// Liveness is a word-packed atomic bitset with a maintained live count, so
// the Send/Alive hot path and LiveCount are lock-free: concurrent sends,
// attaches and detaches never serialise on a network-wide lock.
//
// The layout keeps what every Send and Alive only READS (the first group)
// off every cache line a Send WRITES: messages are counted in sentStripes
// padded counters picked by the operation's ledger (countSent), so goroutines
// running different operations neither bounce a shared counter line between
// cores nor evict the fields their next Send must load.
type Network struct {
	space metric.Space
	size  int

	live []atomic.Uint64 // bit a&63 of word a>>6 = address a is attached

	// load, when enabled, counts messages ADDRESSED to each address — the
	// hotspot measurement for the serving-layer experiments. A probe to a
	// dead address still counts: the attempt consumed that attachment
	// point, exactly like the charged timeout in Send. nil (one
	// pointer-null check on Send) unless EnableLoadTracking was called.
	load []atomic.Int64

	// engine, when attached, switches Send to the event-driven backend:
	// a message parks the calling op on the scheduler until its delivery
	// event fires, so metric distance becomes virtual latency and liveness
	// is evaluated at delivery time. nil — the default — is the direct-call
	// backend with exactly the pre-engine semantics. Attach before any
	// traffic; the field is then read-only.
	engine *Engine

	// faults, when non-nil, is the installed fault-injection configuration
	// (partition mask and/or seeded loss/duplication rates). The fault-free
	// default is the nil pointer, so the only overhead on today's Send path
	// is a single atomic load. Configurations are immutable; the setters
	// swap whole states (copy-on-write), so a Send racing a reconfiguration
	// sees either the old or the new state, never a torn one.
	faults atomic.Pointer[faultState]

	epoch atomic.Int64 // read by every publish, written once per Tick

	_ [cacheLine]byte // everything above is read-mostly; everything below is written by traffic

	liveCount  atomic.Int64
	lost       atomic.Int64 // messages dropped by injected link loss
	duplicated atomic.Int64 // extra deliveries from injected duplication
	blocked    atomic.Int64 // messages refused across an active partition cut

	// sent counts every charged message, duplicates included, striped by
	// ledger (by sender address for a ledger without a stripe); TotalMessages
	// sums the stripes.
	sent [sentStripes]sentStripe
}

// cacheLine is the padding unit: two 64-byte lines, because the adjacent-line
// prefetcher of current x86 parts pulls lines in aligned pairs.
const cacheLine = 128

// sentStripes is the number of message counters (a power of two: the fallback
// stripe is the low bits of the sender's address; at most 255, since a ledger
// names its stripe in a byte).
const sentStripes = 64

// sentStripe is one message counter alone on its cache line(s). The pad comes
// first so stripe 0 is also clear of the counters declared before the array.
type sentStripe struct {
	_ [cacheLine - 8]byte
	n atomic.Int64
}

// countSent records one charged message sent from addr on cost's stripe. A
// ledger with a stripe of its own (UseStripe) counts every message of its
// operation on one line, which stays in the cache of the core running it; by
// sender address — the fallback for a nil or stripe-less ledger — an
// operation that roams the mesh touches a different line at every hop. The
// add stays atomic either way (stripes outnumber neither ledgers nor
// senders), and it is the one locked instruction a message executes here.
func (n *Network) countSent(from Addr, cost *Cost) {
	stripe := uint(from)
	if cost != nil && cost.stripe != 0 {
		stripe = uint(cost.stripe - 1)
	}
	n.sent[stripe%sentStripes].n.Add(1)
}

// Stats is a snapshot of the network-wide message counters, including
// injected-fault accounting. With no faults ever configured the three fault
// counters are exactly zero.
type Stats struct {
	TotalMessages int64 // every charged message, including duplicates
	Lost          int64 // messages dropped by injected link loss
	Duplicated    int64 // extra deliveries from injected duplication
	Blocked       int64 // messages refused across an active partition cut
}

// Stats returns the current network-wide counter snapshot. Fields are read
// individually (atomics); quiesce traffic for a fully coherent set, as every
// experiment in this repository does between phases.
func (n *Network) Stats() Stats {
	return Stats{
		TotalMessages: n.TotalMessages(),
		Lost:          n.lost.Load(),
		Duplicated:    n.duplicated.Load(),
		Blocked:       n.blocked.Load(),
	}
}

// faultRNG is the seeded SplitMix64 stream behind per-message loss and
// duplication draws. It is shared (by pointer) across copy-on-write fault
// states so reconfiguring the partition mid-run does not rewind the stream.
// The mutex serialises concurrent Send draws; fault-free runs never touch it.
type faultRNG struct {
	mu    sync.Mutex
	state uint64
}

// uniform returns the next draw in [0,1).
func (r *faultRNG) uniform() float64 {
	r.mu.Lock()
	r.state = stats.SplitMix64(r.state)
	u := r.state
	r.mu.Unlock()
	return float64(u>>11) / (1 << 53)
}

// faultState is one immutable fault-injection configuration.
type faultState struct {
	loss float64 // per-message drop probability
	dup  float64 // per-message duplication probability
	rng  *faultRNG
	// partition, when non-nil, assigns every address to a group; messages
	// whose endpoints fall in different groups are refused.
	partition []int
}

// empty reports whether the state injects nothing (and can be stored as nil).
func (f *faultState) empty() bool {
	return f.loss == 0 && f.dup == 0 && f.partition == nil
}

// sendVerdict is the per-message fault decision.
type sendVerdict uint8

const (
	verdictDeliver sendVerdict = iota
	verdictBlocked
	verdictLost
	verdictDuplicated
)

// judge decides the fate of one message. The partition check consumes no
// randomness; loss and duplication share a single uniform draw (loss wins
// ties), so a message stream under rates (l, d) and one under (l, 0) consume
// the seeded stream identically.
func (f *faultState) judge(from, to Addr) sendVerdict {
	if f.partition != nil && f.partition[from] != f.partition[to] {
		return verdictBlocked
	}
	if f.loss > 0 || f.dup > 0 {
		u := f.rng.uniform()
		if u < f.loss {
			return verdictLost
		}
		if u < f.loss+f.dup {
			return verdictDuplicated
		}
	}
	return verdictDeliver
}

// SetLinkFaults installs seeded per-message loss and duplication rates at the
// Send seam. Each rate must lie in [0,1] with loss+dup <= 1 (a message is
// lost, duplicated, or delivered — exclusively). Setting both to zero removes
// link faults while keeping any partition mask. The draw stream is reseeded
// on every call; an existing stream survives partition-only changes.
//
// Like EnableLoadTracking, reconfiguration is not synchronised against
// in-flight traffic — call it from the single scenario/control goroutine
// while no operation is mid-Send for exact per-message accounting.
func (n *Network) SetLinkFaults(loss, dup float64, seed int64) {
	if loss < 0 || dup < 0 || loss > 1 || dup > 1 || loss+dup > 1 ||
		math.IsNaN(loss) || math.IsNaN(dup) {
		panic(fmt.Sprintf("netsim: invalid link-fault rates loss=%v dup=%v", loss, dup))
	}
	next := &faultState{loss: loss, dup: dup}
	if loss > 0 || dup > 0 {
		next.rng = &faultRNG{state: stats.SplitMix64(uint64(seed))}
	}
	if cur := n.faults.Load(); cur != nil {
		next.partition = cur.partition
	}
	n.storeFaults(next)
}

// SetPartition installs a reachability mask: group assigns every address an
// integer side, and Send refuses (and counts as Blocked) any message whose
// endpoints lie on different sides. len(group) must equal Size(). The slice
// is copied. Link-fault rates, if configured, survive.
func (n *Network) SetPartition(group []int) {
	if len(group) != n.size {
		panic(fmt.Sprintf("netsim: partition mask has %d entries for %d addresses", len(group), n.size))
	}
	next := &faultState{partition: append([]int(nil), group...)}
	if cur := n.faults.Load(); cur != nil {
		next.loss, next.dup, next.rng = cur.loss, cur.dup, cur.rng
	}
	n.storeFaults(next)
}

// HealPartition removes the partition mask, keeping any link-fault rates.
func (n *Network) HealPartition() {
	cur := n.faults.Load()
	if cur == nil || cur.partition == nil {
		return
	}
	n.storeFaults(&faultState{loss: cur.loss, dup: cur.dup, rng: cur.rng})
}

// ClearFaults removes all fault injection, restoring the exact fault-free
// Send path. Counters are cumulative and are not reset.
func (n *Network) ClearFaults() {
	n.faults.Store(nil)
}

// storeFaults publishes a new configuration, normalising the do-nothing
// state to the nil pointer so the fault-free Send path stays a single
// atomic null check.
func (n *Network) storeFaults(f *faultState) {
	if f.empty() {
		f = nil
	}
	n.faults.Store(f)
}

// New creates a network over the given metric space with all addresses
// initially unattached.
func New(space metric.Space) *Network {
	return &Network{
		space: space,
		size:  space.Size(),
		live:  make([]atomic.Uint64, (space.Size()+63)/64),
	}
}

// checkAddr preserves the bounds panic of a plain slice index: the last
// bitset word is padded, so without it an out-of-range address would
// silently set or read a phantom bit instead of failing at the faulty call.
func (n *Network) checkAddr(a Addr) {
	if a < 0 || int(a) >= n.size {
		panic(fmt.Sprintf("netsim: address %d out of range [0,%d)", a, n.size))
	}
}

// Space returns the underlying metric space.
func (n *Network) Space() metric.Space { return n.space }

// Size returns the number of addresses (attached or not).
func (n *Network) Size() int { return n.space.Size() }

// Distance returns the metric distance between two addresses.
func (n *Network) Distance(a, b Addr) float64 {
	return n.space.Distance(int(a), int(b))
}

// Attach marks an address as hosting a live overlay node.
func (n *Network) Attach(a Addr) {
	n.setLive(a, true)
}

// Detach marks an address as no longer hosting a node (voluntary departure
// or failure — the network does not distinguish; the overlay does).
func (n *Network) Detach(a Addr) {
	n.setLive(a, false)
}

// setLive flips address a's liveness bit with a CAS loop and maintains the
// live count; a no-op transition (already in the desired state) leaves the
// count untouched, so Attach/Detach are idempotent.
func (n *Network) setLive(a Addr, up bool) {
	n.checkAddr(a)
	w := &n.live[a>>6]
	mask := uint64(1) << (uint(a) & 63)
	for {
		old := w.Load()
		next := old | mask
		if !up {
			next = old &^ mask
		}
		if next == old {
			return
		}
		if w.CompareAndSwap(old, next) {
			if up {
				n.liveCount.Add(1)
			} else {
				n.liveCount.Add(-1)
			}
			return
		}
	}
}

// Alive reports whether the address currently hosts a live node.
func (n *Network) Alive(a Addr) bool {
	n.checkAddr(a)
	return n.live[a>>6].Load()&(uint64(1)<<(uint(a)&63)) != 0
}

// LiveCount returns the number of attached addresses (O(1): the count is
// maintained on every liveness transition, not recounted).
func (n *Network) LiveCount() int {
	return int(n.liveCount.Load())
}

// Send charges one message from a to b. It fails if b is not alive, after
// still charging the attempt (a timed-out probe consumes real network
// resources). hop marks application-level routing hops; acknowledgments and
// control chatter pass hop=false.
func (n *Network) Send(from, to Addr, cost *Cost, hop bool) error {
	n.countSent(from, cost)
	if n.load != nil {
		n.load[to].Add(1)
	}
	d := n.Distance(from, to)
	cost.Add(d, hop)
	// The fault verdict is decided after the attempt is charged — a dropped
	// or refused message consumed the sender's resources — but before the
	// engine park, so the draw order is independent of virtual-time
	// interleaving (one stream position per charged message).
	verdict := verdictDeliver
	if f := n.faults.Load(); f != nil {
		verdict = f.judge(from, to)
	}
	if e := n.engine; e != nil && e.active() {
		// Event-driven backend: the message is in flight for its metric
		// distance (plus any inbound-queue wait at the receiver); the op
		// parks until the delivery event fires. Liveness is then checked at
		// delivery time — the receiver may have died (or appeared) while the
		// message was in the air, which the direct-call model cannot express.
		// Lost and partition-refused messages still park: the sender learns
		// of the failure by timeout, which takes at least as long.
		cost.Stamp(e.Now())
		e.transmit(to, d)
		cost.Stamp(e.Now())
	}
	switch verdict {
	case verdictBlocked:
		n.blocked.Add(1)
		return &sendError{from, to, verdict}
	case verdictLost:
		n.lost.Add(1)
		return &sendError{from, to, verdict}
	case verdictDuplicated:
		// The spurious copy consumes bandwidth and hits the receiver like
		// any other message, but is not a routing hop and adds no latency
		// beyond the original.
		n.duplicated.Add(1)
		n.countSent(from, cost)
		if n.load != nil {
			n.load[to].Add(1)
		}
		cost.Add(d, false)
	}
	if !n.Alive(to) {
		return &sendError{from, to, verdictDeliver}
	}
	return nil
}

// AttachEngine switches the network to the event-driven execution backend.
// Attach before any traffic or scheduling; a network without an engine runs
// every operation as a direct synchronous call, exactly as before.
func (n *Network) AttachEngine(e *Engine) {
	e.attachPorts(n.size)
	n.engine = e
}

// Engine returns the attached event engine, or nil in direct-call mode.
func (n *Network) Engine() *Engine { return n.engine }

// RPC charges a request/response pair (two messages, one routing hop) and
// fails if the destination is dead.
func (n *Network) RPC(from, to Addr, cost *Cost) error {
	if err := n.Send(from, to, cost, true); err != nil {
		return err
	}
	return n.Send(to, from, cost, false)
}

// TotalMessages returns the network-wide message count since construction:
// the sum of the striped counters. Exact once traffic has quiesced;
// against concurrent senders each stripe is read atomically, like the other
// Stats fields.
func (n *Network) TotalMessages() int64 {
	var total int64
	for i := range n.sent {
		total += n.sent[i].n.Load()
	}
	return total
}

// EnableLoadTracking switches on (or, called again, resets) the per-address
// message counters — the per-node load measurement behind the hotspot
// experiments. Call it while no traffic is in flight: enabling races
// with concurrent Send calls is not synchronized (the counters themselves
// are atomics and are safe under any concurrency once enabled).
func (n *Network) EnableLoadTracking() {
	if n.load == nil {
		n.load = make([]atomic.Int64, n.size)
		return
	}
	for i := range n.load {
		n.load[i].Store(0)
	}
}

// LoadAt returns the number of messages addressed to addr (delivered, or
// charged against a dead host) since load tracking was enabled (0 when
// tracking is off).
func (n *Network) LoadAt(a Addr) int64 {
	n.checkAddr(a)
	if n.load == nil {
		return 0
	}
	return n.load[a].Load()
}

// Loads returns a snapshot of the counters LoadAt reads, indexed by address,
// or nil when load tracking is off.
func (n *Network) Loads() []int64 {
	if n.load == nil {
		return nil
	}
	out := make([]int64, len(n.load))
	for i := range n.load {
		out[i] = n.load[i].Load()
	}
	return out
}

// Epoch returns the current virtual time.
func (n *Network) Epoch() int64 { return n.epoch.Load() }

// Tick advances virtual time by one epoch and returns the new value.
// Soft-state mechanisms (pointer expiry, republish) key off epochs.
func (n *Network) Tick() int64 { return n.epoch.Add(1) }
