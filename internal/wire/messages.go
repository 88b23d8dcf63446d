package wire

import (
	"tapestry/internal/ids"
	"tapestry/internal/netsim"
	"tapestry/internal/route"
)

// Message type IDs. Pinned by testdata/wire.golden: append new values, never
// renumber. 1–39 is the core mesh protocol (4 and 5, the retired repair-scan
// pair, stay unassigned); 40+ is the multi-process cluster protocol spoken by
// cmd/tapestry-node.
const (
	TPing             Type = 1
	TAck              Type = 2
	TRouteStep        Type = 3
	TTableBandReq     Type = 6
	TTableBandResp    Type = 7
	TShareReq         Type = 8
	TShareResp        Type = 9
	TLocateStep       Type = 10
	TVerifyReq        Type = 11
	TVerifyResp       Type = 12
	TDeleteBack       Type = 13
	TBackAdd          Type = 14
	TBackRemove       Type = 15
	TMcastStep        Type = 16
	TMcastNotify      Type = 17
	TJoinSnapshotReq  Type = 18
	TJoinSnapshotResp Type = 19
	TReacquireReq     Type = 20
	TCaravanStep      Type = 21
	TLeaveNotify      Type = 22
	TNodeDeleted      Type = 23
	TDropLinks        Type = 24
	TLocalStep        Type = 25
	TPtrForward       Type = 26
	TPublishReq       Type = 27

	TClusterInstall Type = 40
	TClusterAck     Type = 41
	TClusterServe   Type = 42
	TClusterPublish Type = 43
	TClusterPubDone Type = 44
	TClusterLocate  Type = 45
	TClusterFound   Type = 46
)

// catalogue is the one list of defined messages, in wire order: what a type is
// called and how a fresh struct of it is made. String, Types and New read it.
var catalogue = [...]struct {
	t     Type
	name  string
	fresh func() Msg
}{
	{TPing, "Ping", func() Msg { return new(Ping) }},
	{TAck, "Ack", func() Msg { return new(Ack) }},
	{TRouteStep, "RouteStep", func() Msg { return new(RouteStep) }},
	{TTableBandReq, "TableBandReq", func() Msg { return new(TableBandReq) }},
	{TTableBandResp, "TableBandResp", func() Msg { return new(TableBandResp) }},
	{TShareReq, "ShareReq", func() Msg { return new(ShareReq) }},
	{TShareResp, "ShareResp", func() Msg { return new(ShareResp) }},
	{TLocateStep, "LocateStep", func() Msg { return new(LocateStep) }},
	{TVerifyReq, "VerifyReq", func() Msg { return new(VerifyReq) }},
	{TVerifyResp, "VerifyResp", func() Msg { return new(VerifyResp) }},
	{TDeleteBack, "DeleteBack", func() Msg { return new(DeleteBack) }},
	{TBackAdd, "BackAdd", func() Msg { return new(BackAdd) }},
	{TBackRemove, "BackRemove", func() Msg { return new(BackRemove) }},
	{TMcastStep, "McastStep", func() Msg { return new(McastStep) }},
	{TMcastNotify, "McastNotify", func() Msg { return new(McastNotify) }},
	{TJoinSnapshotReq, "JoinSnapshotReq", func() Msg { return new(JoinSnapshotReq) }},
	{TJoinSnapshotResp, "JoinSnapshotResp", func() Msg { return new(JoinSnapshotResp) }},
	{TReacquireReq, "ReacquireReq", func() Msg { return new(ReacquireReq) }},
	{TCaravanStep, "CaravanStep", func() Msg { return new(CaravanStep) }},
	{TLeaveNotify, "LeaveNotify", func() Msg { return new(LeaveNotify) }},
	{TNodeDeleted, "NodeDeleted", func() Msg { return new(NodeDeleted) }},
	{TDropLinks, "DropLinks", func() Msg { return new(DropLinks) }},
	{TLocalStep, "LocalStep", func() Msg { return new(LocalStep) }},
	{TPtrForward, "PtrForward", func() Msg { return new(PtrForward) }},
	{TPublishReq, "PublishReq", func() Msg { return new(PublishReq) }},
	{TClusterInstall, "ClusterInstall", func() Msg { return new(ClusterInstall) }},
	{TClusterAck, "ClusterAck", func() Msg { return new(ClusterAck) }},
	{TClusterServe, "ClusterServe", func() Msg { return new(ClusterServe) }},
	{TClusterPublish, "ClusterPublish", func() Msg { return new(ClusterPublish) }},
	{TClusterPubDone, "ClusterPubDone", func() Msg { return new(ClusterPubDone) }},
	{TClusterLocate, "ClusterLocate", func() Msg { return new(ClusterLocate) }},
	{TClusterFound, "ClusterFound", func() Msg { return new(ClusterFound) }},
}

// find returns t's row in the catalogue, or -1 if t is not a defined type.
func find(t Type) int {
	for i := range catalogue {
		if catalogue[i].t == t {
			return i
		}
	}
	return -1
}

// String names the type for diagnostics and the golden format test.
func (t Type) String() string {
	if i := find(t); i >= 0 {
		return catalogue[i].name
	}
	return "Unknown"
}

// Types lists every defined message type in wire order (the golden test and
// fuzz corpus iterate it).
func Types() []Type {
	out := make([]Type, len(catalogue))
	for i := range catalogue {
		out[i] = catalogue[i].t
	}
	return out
}

// New returns a fresh zero message of the given type, or nil if t is unknown.
func New(t Type) Msg {
	if i := find(t); i >= 0 {
		return catalogue[i].fresh()
	}
	return nil
}

// RouteOp tags the purpose of a routing-walk step (diagnostics only; hop
// processing is identical).
type RouteOp byte

const (
	RouteOpRoute RouteOp = iota
	RouteOpPublish
	RouteOpUnpublish
)

// Slot names one routing-table slot (level, digit) on the wire.
type Slot struct {
	Level int
	Digit ids.Digit
}

// LeveledEntry pairs a routing entry with the level it lives at.
type LeveledEntry struct {
	Level int
	E     route.Entry
}

// PubRec is one soft-state pointer republish record riding a caravan
// (Section 6.5): where the pointer chain for GUID stood when the batch left
// its server.
type PubRec struct {
	GUID     ids.ID
	Key      ids.ID
	Level    int
	PrevID   ids.ID
	PrevAddr netsim.Addr
	Hops     int
	Salt     int // index of the salted root Key = Salt(GUID, Salt)
}

func (e *Enc) pubRec(r PubRec) {
	e.ID(r.GUID)
	e.ID(r.Key)
	e.Int(r.Level)
	e.ID(r.PrevID)
	e.Addr(r.PrevAddr)
	e.Int(r.Hops)
	e.Int(r.Salt)
}

func (d *Dec) pubRec() PubRec {
	var r PubRec
	r.GUID = d.ID()
	r.Key = d.ID()
	r.Level = d.Int()
	r.PrevID = d.ID()
	r.PrevAddr = d.Addr()
	r.Hops = d.Int()
	r.Salt = d.Int()
	return r
}

// Ping is the empty liveness probe (sweep, reorder); Ack is its reply and the
// generic empty response of walk-step RPCs.
type Ping struct{}

func (*Ping) WireType() Type  { return TPing }
func (*Ping) EncodeTo(*Enc)   {}
func (*Ping) DecodeFrom(*Dec) {}

// Ack is the empty acknowledgment.
type Ack struct{}

func (*Ack) WireType() Type  { return TAck }
func (*Ack) EncodeTo(*Enc)   {}
func (*Ack) DecodeFrom(*Dec) {}

// RouteStep is one hop of a key-directed walk (Section 2.3): route toward Key,
// currently matched to Level digits. Op records whether the walk is a plain
// route, a publish path, or an unpublish path.
type RouteStep struct {
	Key   ids.ID
	Level int
	Op    RouteOp
}

func (*RouteStep) WireType() Type { return TRouteStep }
func (m *RouteStep) EncodeTo(e *Enc) {
	e.ID(m.Key)
	e.Int(m.Level)
	e.U8(byte(m.Op))
}
func (m *RouteStep) DecodeFrom(d *Dec) {
	m.Key = d.ID()
	m.Level = d.Int()
	m.Op = RouteOp(d.U8())
}

// TableBandReq asks a peer for its forward and backward links in levels
// [Floor, Fold) — the §4.2 nearest-neighbor engine's per-peer query. Fold
// of -1 means "everything from Floor up".
type TableBandReq struct {
	Floor int
	Fold  int
}

func (*TableBandReq) WireType() Type { return TTableBandReq }
func (m *TableBandReq) EncodeTo(e *Enc) {
	e.Int(m.Floor)
	e.Int(m.Fold)
}
func (m *TableBandReq) DecodeFrom(d *Dec) {
	m.Floor = d.Int()
	m.Fold = d.Int()
}

// TableBandResp carries the requested band of links.
type TableBandResp struct {
	Entries []route.Entry
}

func (*TableBandResp) WireType() Type    { return TTableBandResp }
func (m *TableBandResp) EncodeTo(e *Enc) { e.Entries(m.Entries) }
func (m *TableBandResp) DecodeFrom(d *Dec) {
	m.Entries = d.Entries(m.Entries)
}

// ShareReq offers a row of routing entries to a neighbor, who re-measures
// them from its own vantage point and adopts improvements (§6.4 local
// information sharing).
type ShareReq struct {
	Entries []route.Entry
}

func (*ShareReq) WireType() Type    { return TShareReq }
func (m *ShareReq) EncodeTo(e *Enc) { e.Entries(m.Entries) }
func (m *ShareReq) DecodeFrom(d *Dec) {
	m.Entries = d.Entries(m.Entries)
}

// ShareResp reports how many offered entries the recipient adopted.
type ShareResp struct {
	Adopted int
}

func (*ShareResp) WireType() Type    { return TShareResp }
func (m *ShareResp) EncodeTo(e *Enc) { e.Int(m.Adopted) }
func (m *ShareResp) DecodeFrom(d *Dec) {
	m.Adopted = d.Int()
}

// LocateStep is one hop of a Locate walk toward GUID's root (Section 2.2):
// Key is the salted root identifier being routed to (Key = Salt(GUID, Salt)),
// Hops the distance walked so far.
type LocateStep struct {
	GUID  ids.ID
	Key   ids.ID
	Level int
	Hops  int
	Salt  int
}

func (*LocateStep) WireType() Type { return TLocateStep }
func (m *LocateStep) EncodeTo(e *Enc) {
	e.ID(m.GUID)
	e.ID(m.Key)
	e.Int(m.Level)
	e.Int(m.Hops)
	e.Int(m.Salt)
}
func (m *LocateStep) DecodeFrom(d *Dec) {
	m.GUID = d.ID()
	m.Key = d.ID()
	m.Level = d.Int()
	m.Hops = d.Int()
	m.Salt = d.Int()
}

// VerifyReq asks a storage server whether it still serves a replica of GUID
// (the liveness check a pointer holder runs before answering a query).
type VerifyReq struct {
	GUID ids.ID
}

func (*VerifyReq) WireType() Type    { return TVerifyReq }
func (m *VerifyReq) EncodeTo(e *Enc) { e.ID(m.GUID) }
func (m *VerifyReq) DecodeFrom(d *Dec) {
	m.GUID = d.ID()
}

// VerifyResp answers a VerifyReq.
type VerifyResp struct {
	Serves bool
}

func (*VerifyResp) WireType() Type    { return TVerifyResp }
func (m *VerifyResp) EncodeTo(e *Enc) { e.Bool(m.Serves) }
func (m *VerifyResp) DecodeFrom(d *Dec) {
	m.Serves = d.Bool()
}

// DeleteBack is one step of the Figure 9 backward deletion walk: remove the
// pointer for (GUID, Server) along the publish path of Key, stopping at
// StopAt.
type DeleteBack struct {
	GUID   ids.ID
	Key    ids.ID
	Server ids.ID
	StopAt ids.ID
}

func (*DeleteBack) WireType() Type { return TDeleteBack }
func (m *DeleteBack) EncodeTo(e *Enc) {
	e.ID(m.GUID)
	e.ID(m.Key)
	e.ID(m.Server)
	e.ID(m.StopAt)
}
func (m *DeleteBack) DecodeFrom(d *Dec) {
	m.GUID = d.ID()
	m.Key = d.ID()
	m.Server = d.ID()
	m.StopAt = d.ID()
}

// BackAdd registers the sender as a level-Level backpointer holder at the
// receiver: "From now routes through you".
type BackAdd struct {
	Level int
	From  route.Entry
}

func (*BackAdd) WireType() Type { return TBackAdd }
func (m *BackAdd) EncodeTo(e *Enc) {
	e.Int(m.Level)
	e.Entry(m.From)
}
func (m *BackAdd) DecodeFrom(d *Dec) {
	m.Level = d.Int()
	m.From = d.Entry()
}

// BackRemove retracts a previously registered backpointer.
type BackRemove struct {
	Level int
	ID    ids.ID
}

func (*BackRemove) WireType() Type { return TBackRemove }
func (m *BackRemove) EncodeTo(e *Enc) {
	e.Int(m.Level)
	e.ID(m.ID)
}
func (m *BackRemove) DecodeFrom(d *Dec) {
	m.Level = d.Int()
	m.ID = d.ID()
}

// McastStep delivers an acknowledged-multicast visit (Section 4.1): P is the
// prefix this arm covers, Root the multicast's α. For insertion multicasts,
// NewNode is the inserting node and HoleLevel is |α|.
type McastStep struct {
	P         ids.Prefix
	Root      ids.Prefix
	NewNode   route.Entry
	HoleLevel int
}

func (*McastStep) WireType() Type { return TMcastStep }
func (m *McastStep) EncodeTo(e *Enc) {
	e.Prefix(m.P)
	e.Prefix(m.Root)
	e.Entry(m.NewNode)
	e.Int(m.HoleLevel)
}
func (m *McastStep) DecodeFrom(d *Dec) {
	m.P = d.Prefix()
	m.Root = d.Prefix()
	m.NewNode = d.Entry()
	m.HoleLevel = d.Int()
}

// McastNotify tells an inserting node that the sender (Me) fills watched
// slots it still lacks (Figure 11, CheckForNodesAndSend).
type McastNotify struct {
	Me    route.Entry
	Slots []Slot
}

func (*McastNotify) WireType() Type { return TMcastNotify }
func (m *McastNotify) EncodeTo(e *Enc) {
	e.Entry(m.Me)
	e.Uvarint(uint64(len(m.Slots)))
	for _, s := range m.Slots {
		e.Int(s.Level)
		e.U8(s.Digit)
	}
}
func (m *McastNotify) DecodeFrom(d *Dec) {
	m.Me = d.Entry()
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Len()) {
		d.fail("slot count %d exceeds remaining %d bytes", n, d.Len())
	}
	m.Slots = m.Slots[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Slots = append(m.Slots, Slot{Level: d.Int(), Digit: d.U8()})
	}
}

// JoinSnapshotReq is the join step-2 RPC to the surrogate: pin the new node
// at PinLevel and return a copy of your routing table as the preliminary
// table (Section 4.2).
type JoinSnapshotReq struct {
	NewID    ids.ID
	NewAddr  netsim.Addr
	PinLevel int
}

func (*JoinSnapshotReq) WireType() Type { return TJoinSnapshotReq }
func (m *JoinSnapshotReq) EncodeTo(e *Enc) {
	e.ID(m.NewID)
	e.Addr(m.NewAddr)
	e.Int(m.PinLevel)
}
func (m *JoinSnapshotReq) DecodeFrom(d *Dec) {
	m.NewID = d.ID()
	m.NewAddr = d.Addr()
	m.PinLevel = d.Int()
}

// JoinSnapshotResp carries the surrogate's table copy, flattened in
// ascending (level, digit) order.
type JoinSnapshotResp struct {
	Rows []LeveledEntry
}

func (*JoinSnapshotResp) WireType() Type { return TJoinSnapshotResp }
func (m *JoinSnapshotResp) EncodeTo(e *Enc) {
	e.Uvarint(uint64(len(m.Rows)))
	for _, r := range m.Rows {
		e.Int(r.Level)
		e.Entry(r.E)
	}
}
func (m *JoinSnapshotResp) DecodeFrom(d *Dec) {
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Len()) {
		d.fail("row count %d exceeds remaining %d bytes", n, d.Len())
	}
	m.Rows = m.Rows[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Rows = append(m.Rows, LeveledEntry{Level: d.Int(), E: d.Entry()})
	}
}

// ReacquireReq asks a node's current surrogate to run the full
// nearest-neighbor reacquisition multicast on the sender's behalf (§6.4).
type ReacquireReq struct{}

func (*ReacquireReq) WireType() Type  { return TReacquireReq }
func (*ReacquireReq) EncodeTo(*Enc)   {}
func (*ReacquireReq) DecodeFrom(*Dec) {}

// CaravanStep is one hop of a §6.5 republish caravan: the batch of pointer
// records from Server that share their next publish-path hop.
type CaravanStep struct {
	Server     ids.ID
	ServerAddr netsim.Addr
	Recs       []PubRec
}

func (*CaravanStep) WireType() Type { return TCaravanStep }
func (m *CaravanStep) EncodeTo(e *Enc) {
	e.ID(m.Server)
	e.Addr(m.ServerAddr)
	e.Uvarint(uint64(len(m.Recs)))
	for _, r := range m.Recs {
		e.pubRec(r)
	}
}
func (m *CaravanStep) DecodeFrom(d *Dec) {
	m.Server = d.ID()
	m.ServerAddr = d.Addr()
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Len()) {
		d.fail("record count %d exceeds remaining %d bytes", n, d.Len())
	}
	m.Recs = m.Recs[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Recs = append(m.Recs, d.pubRec())
	}
}

// LeaveNotify is the §5.1 voluntary-delete notification: Leaver is departing
// and offers Replacements for the slot at Level.
type LeaveNotify struct {
	Leaver       ids.ID
	Level        int
	Replacements []route.Entry
}

func (*LeaveNotify) WireType() Type { return TLeaveNotify }
func (m *LeaveNotify) EncodeTo(e *Enc) {
	e.ID(m.Leaver)
	e.Int(m.Level)
	e.Entries(m.Replacements)
}
func (m *LeaveNotify) DecodeFrom(d *Dec) {
	m.Leaver = d.ID()
	m.Level = d.Int()
	m.Replacements = d.Entries(m.Replacements)
}

// NodeDeleted tells a backpointer holder that the node it routes through is
// gone (§5.1 phase 3).
type NodeDeleted struct {
	ID ids.ID
}

func (*NodeDeleted) WireType() Type    { return TNodeDeleted }
func (m *NodeDeleted) EncodeTo(e *Enc) { e.ID(m.ID) }
func (m *NodeDeleted) DecodeFrom(d *Dec) {
	m.ID = d.ID()
}

// DropLinks tells a forward neighbor to remove every link to ID (§5.1
// phase 3, the forward direction).
type DropLinks struct {
	ID ids.ID
}

func (*DropLinks) WireType() Type    { return TDropLinks }
func (m *DropLinks) EncodeTo(e *Enc) { e.ID(m.ID) }
func (m *DropLinks) DecodeFrom(d *Dec) {
	m.ID = d.ID()
}

// LocalStep is one hop of a §6.3 locality-constrained walk: route toward Key
// without leaving Region.
type LocalStep struct {
	Key    ids.ID
	Level  int
	Region int
}

func (*LocalStep) WireType() Type { return TLocalStep }
func (m *LocalStep) EncodeTo(e *Enc) {
	e.ID(m.Key)
	e.Int(m.Level)
	e.Int(m.Region)
}
func (m *LocalStep) DecodeFrom(d *Dec) {
	m.Key = d.ID()
	m.Level = d.Int()
	m.Region = d.Int()
}

// PtrForward is one hop of an object-pointer move (Section 4.2's
// "move some object pointers" and the §5.1 leave handoff): re-walk the
// publish path for (GUID, Server) from Level.
type PtrForward struct {
	GUID       ids.ID
	Key        ids.ID
	Server     ids.ID
	ServerAddr netsim.Addr
	Level      int
	PrevID     ids.ID
	PrevAddr   netsim.Addr
}

func (*PtrForward) WireType() Type { return TPtrForward }
func (m *PtrForward) EncodeTo(e *Enc) {
	e.ID(m.GUID)
	e.ID(m.Key)
	e.ID(m.Server)
	e.Addr(m.ServerAddr)
	e.Int(m.Level)
	e.ID(m.PrevID)
	e.Addr(m.PrevAddr)
}
func (m *PtrForward) DecodeFrom(d *Dec) {
	m.GUID = d.ID()
	m.Key = d.ID()
	m.Server = d.ID()
	m.ServerAddr = d.Addr()
	m.Level = d.Int()
	m.PrevID = d.ID()
	m.PrevAddr = d.Addr()
}

// PublishReq asks the receiver to (re-)announce GUID. With Adopt set the
// receiver first records itself as a replica server for GUID — the k-replica
// placement handoff — and then publishes along every salted root. Without
// Adopt it republishes only toward the salted roots listed in Salts, which is
// how read-repair refills a root whose publish path decayed. The reply is an
// Ack.
type PublishReq struct {
	GUID  ids.ID
	Adopt bool
	Salts []int
}

func (*PublishReq) WireType() Type { return TPublishReq }
func (m *PublishReq) EncodeTo(e *Enc) {
	e.ID(m.GUID)
	e.Bool(m.Adopt)
	e.Uvarint(uint64(len(m.Salts)))
	for _, s := range m.Salts {
		e.Int(s)
	}
}
func (m *PublishReq) DecodeFrom(d *Dec) {
	m.GUID = d.ID()
	m.Adopt = d.Bool()
	n := d.Uvarint()
	if d.err == nil && n > uint64(d.Len()) {
		d.fail("salt count %d exceeds remaining %d bytes", n, d.Len())
	}
	m.Salts = m.Salts[:0]
	for i := uint64(0); i < n && d.err == nil; i++ {
		m.Salts = append(m.Salts, d.Int())
	}
}
