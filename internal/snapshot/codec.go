package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/store"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

// Wire layout: an 8-byte magic, a uvarint format version, a sequence of
// tagged length-prefixed sections terminated by an empty tag, and a CRC-32
// (IEEE) of everything preceding it. Sections are self-describing enough
// for tooling to size them without decoding; the decoder rejects unknown
// versions, unknown tags, duplicate or missing sections, trailing garbage
// and any checksum mismatch — and never panics on malformed input.
const (
	magic = "DIGSSNAP"
	// Version is the current wire format version. Bump it on any layout
	// change; decoders reject versions they do not know. Version 2 added
	// the scale engine's network-state fields (sparse fade pairs and nap
	// vectors); version 3 added the controller-layer stack sections (sdn,
	// adpt). Older snapshots still decode (they predate those features,
	// so the added fields and sections are simply absent).
	Version = 3
)

// Section tags.
const (
	secMeta     = "meta"
	secNet      = "net"
	secMAC      = "mac"
	secDiGS     = "digs"
	secOrch     = "orch"
	secSDN      = "sdn"
	secAdaptive = "adpt"
	secMetrics  = "metrics"
)

// Encode serialises a snapshot to its wire form.
func Encode(s *Snapshot) ([]byte, error) {
	row, err := stackFor(s.Meta.Protocol)
	if err != nil {
		return nil, err
	}
	if s.Net == nil {
		return nil, fmt.Errorf("snapshot: encode without network state")
	}

	w := &writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, magic...)
	w.uvarint(Version)

	section := func(tag string, body func(*writer)) {
		var sw writer
		body(&sw)
		w.str(tag)
		w.bytes(sw.buf)
	}

	section(secMeta, func(sw *writer) { encodeMeta(sw, &s.Meta) })
	section(secNet, func(sw *writer) { encodeNet(sw, s.Net) })
	section(secMAC, func(sw *writer) { encodeMACs(sw, s.MACs) })
	if row.tag != "" {
		section(row.tag, func(sw *writer) { err = encodeStacks(sw, row, s.Stacks) })
		if err != nil {
			return nil, err
		}
	}
	if s.Metrics != nil {
		section(secMetrics, func(sw *writer) { encodeCollector(sw, s.Metrics) })
	}
	w.str("") // terminator
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

// Decode parses a wire-form snapshot. It is safe on arbitrary input:
// corrupt, truncated or version-skewed data returns an error, never a
// panic.
func Decode(b []byte) (*Snapshot, error) {
	if len(b) < len(magic)+1+4 {
		return nil, fmt.Errorf("snapshot: %d bytes is too short", len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}

	r := &reader{buf: body, off: len(magic)}
	ver := r.uvarint()
	if r.err == nil && (ver < 1 || ver > Version) {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads <= %d", ver, Version)
	}

	s := &Snapshot{SectionSizes: make(map[string]int)}
	seen := make(map[string]bool)
	for r.err == nil {
		tag := r.str()
		if r.err != nil || tag == "" {
			break
		}
		payload := r.bytes()
		if r.err != nil {
			break
		}
		if seen[tag] {
			return nil, fmt.Errorf("snapshot: duplicate section %q", tag)
		}
		seen[tag] = true
		s.SectionSizes[tag] = len(payload)
		sr := &reader{buf: payload}
		switch tag {
		case secMeta:
			decodeMeta(sr, &s.Meta)
		case secNet:
			s.Net = decodeNet(sr, ver)
		case secMAC:
			s.MACs = decodeMACs(sr)
		case secMetrics:
			s.Metrics = decodeCollector(sr)
		default:
			row, ok := stackByTag[tag]
			if !ok {
				return nil, fmt.Errorf("snapshot: unknown section %q", tag)
			}
			s.Stacks = decodeStacks(sr, row)
		}
		if sr.err != nil {
			return nil, fmt.Errorf("snapshot: section %q: %w", tag, sr.err)
		}
		if sr.off != len(sr.buf) {
			return nil, fmt.Errorf("snapshot: section %q has %d trailing bytes", tag, len(sr.buf)-sr.off)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after terminator", len(r.buf)-r.off)
	}
	return s, validate(s, seen)
}

// validate enforces cross-section consistency after a structurally sound
// decode.
func validate(s *Snapshot, seen map[string]bool) error {
	for _, tag := range []string{secMeta, secNet, secMAC} {
		if !seen[tag] {
			return fmt.Errorf("snapshot: missing section %q", tag)
		}
	}
	if s.Meta.Nodes < 1 || s.Meta.Nodes > 1<<20 {
		return fmt.Errorf("snapshot: implausible node count %d", s.Meta.Nodes)
	}
	if len(s.MACs) != s.Meta.Nodes+1 {
		return fmt.Errorf("snapshot: %d MAC entries for %d nodes", len(s.MACs), s.Meta.Nodes)
	}
	row, err := stackFor(s.Meta.Protocol)
	if err != nil {
		return err
	}
	for tag := range stackByTag {
		if seen[tag] && tag != row.tag {
			return fmt.Errorf("snapshot: %s snapshot with a %q stack section", s.Meta.Protocol, tag)
		}
	}
	if row.tag != "" && (!seen[row.tag] || len(s.Stacks) != s.Meta.Nodes+1) {
		return fmt.Errorf("snapshot: %s snapshot without matching stack section", s.Meta.Protocol)
	}
	return nil
}

// WriteFile atomically writes the snapshot next to its final path (see
// store.WriteFileAtomic: concurrent writers on one path cannot interleave).
func WriteFile(path string, s *Snapshot) error {
	b, err := Encode(s)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(path, b)
}

// ReadFile loads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// --- meta ---

func encodeMeta(w *writer, m *Meta) {
	w.str(m.Protocol)
	w.str(m.Topology)
	w.intval(m.Nodes)
	w.intval(m.NumAPs)
	w.i64(m.Seed)
	w.i64(m.Slot)
	w.u64(m.ConfigHash)
	w.str(m.Label)
	keys := make([]string, 0, len(m.Extra))
	for k := range m.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.str(m.Extra[k])
	}
}

func decodeMeta(r *reader, m *Meta) {
	m.Protocol = r.str()
	m.Topology = r.str()
	m.Nodes = r.intval()
	m.NumAPs = r.intval()
	m.Seed = r.i64()
	m.Slot = r.i64()
	m.ConfigHash = r.u64()
	m.Label = r.str()
	if n := r.count(2); n > 0 {
		m.Extra = make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := r.str()
			m.Extra[k] = r.str()
		}
	}
}

// --- sim network ---

func encodeNet(w *writer, st *sim.NetworkState) {
	w.i64(st.Seed)
	w.i64(st.ASN)
	w.boolean(st.Started)
	w.u64(st.EventSeq)
	w.u64(st.RNGDraws)
	w.float(st.FastFadingSigmaDB)
	w.uvarint(uint64(len(st.Failed)))
	for _, f := range st.Failed {
		w.boolean(f)
	}
	w.boolean(st.Fade != nil)
	if st.Fade != nil {
		w.uvarint(uint64(len(st.Fade)))
		for _, f := range st.Fade {
			w.float(f)
		}
	}
	w.boolean(st.DriftProb != nil)
	if st.DriftProb != nil {
		w.uvarint(uint64(len(st.DriftProb)))
		for _, p := range st.DriftProb {
			w.float(p)
		}
		for _, s := range st.DriftSeed {
			w.u64(s)
		}
	}
	// Version 2: scale-engine state.
	w.boolean(st.FadeLinkIdx != nil)
	if st.FadeLinkIdx != nil {
		w.uvarint(uint64(len(st.FadeLinkIdx)))
		for _, i := range st.FadeLinkIdx {
			w.uvarint(uint64(uint32(i)))
		}
		for _, v := range st.FadeLinkVal {
			w.float(v)
		}
	}
	w.boolean(st.NapUntil != nil)
	if st.NapUntil != nil {
		w.uvarint(uint64(len(st.NapUntil)))
		for _, v := range st.NapUntil {
			w.i64(v)
		}
		for _, v := range st.NapStart {
			w.i64(v)
		}
	}
}

func decodeNet(r *reader, ver uint64) *sim.NetworkState {
	st := &sim.NetworkState{}
	st.Seed = r.i64()
	st.ASN = r.i64()
	st.Started = r.boolean()
	st.EventSeq = r.u64()
	st.RNGDraws = r.u64()
	st.FastFadingSigmaDB = r.float()
	if n := r.count(1); n > 0 {
		st.Failed = make([]bool, n)
		for i := range st.Failed {
			st.Failed[i] = r.boolean()
		}
	}
	if r.boolean() {
		n := r.count(8)
		st.Fade = make([]float64, n)
		for i := range st.Fade {
			st.Fade[i] = r.float()
		}
	}
	if r.boolean() {
		n := r.count(9)
		st.DriftProb = make([]float64, n)
		for i := range st.DriftProb {
			st.DriftProb[i] = r.float()
		}
		st.DriftSeed = make([]uint64, n)
		for i := range st.DriftSeed {
			st.DriftSeed[i] = r.u64()
		}
	}
	if ver >= 2 {
		if r.boolean() {
			n := r.count(9)
			st.FadeLinkIdx = make([]int32, n)
			for i := range st.FadeLinkIdx {
				st.FadeLinkIdx[i] = int32(uint32(r.uvarint()))
			}
			st.FadeLinkVal = make([]float64, n)
			for i := range st.FadeLinkVal {
				st.FadeLinkVal[i] = r.float()
			}
		}
		if r.boolean() {
			n := r.count(2)
			st.NapUntil = make([]int64, n)
			for i := range st.NapUntil {
				st.NapUntil[i] = r.i64()
			}
			st.NapStart = make([]int64, n)
			for i := range st.NapStart {
				st.NapStart[i] = r.i64()
			}
		}
	}
	return st
}

// --- mac nodes ---

func encodeFrame(w *writer, f *mac.FrameState) {
	w.u8(f.Kind)
	w.u64(uint64(f.Src))
	w.u64(uint64(f.Dst))
	w.u16(f.Seq)
	w.u64(uint64(f.Origin))
	w.u16(f.FlowID)
	w.i64(f.BornASN)
	w.uvarint(uint64(len(f.Route)))
	for _, hop := range f.Route {
		w.u64(uint64(hop))
	}
	w.bytes(f.Payload)
}

func decodeFrame(r *reader) mac.FrameState {
	var f mac.FrameState
	f.Kind = r.u8()
	f.Src = topology.NodeID(r.u64())
	f.Dst = topology.NodeID(r.u64())
	f.Seq = r.u16()
	f.Origin = topology.NodeID(r.u64())
	f.FlowID = r.u16()
	f.BornASN = r.i64()
	if n := r.count(1); n > 0 {
		f.Route = make([]topology.NodeID, n)
		for i := range f.Route {
			f.Route[i] = topology.NodeID(r.u64())
		}
	}
	f.Payload = r.bytes()
	return f
}

func encodePackets(w *writer, ps []mac.PacketState) {
	w.uvarint(uint64(len(ps)))
	for i := range ps {
		encodeFrame(w, &ps[i].Frame)
		w.intval(ps[i].TxCount)
		w.u64(uint64(ps[i].From))
		w.intval(ps[i].Blocked)
	}
}

func decodePackets(r *reader) []mac.PacketState {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	out := make([]mac.PacketState, n)
	for i := range out {
		out[i].Frame = decodeFrame(r)
		out[i].TxCount = r.intval()
		out[i].From = topology.NodeID(r.u64())
		out[i].Blocked = r.intval()
	}
	return out
}

func encodeStats(w *writer, s *mac.Stats) {
	w.float(s.EnergyJoules)
	w.i64(int64(s.RadioOnTime))
	w.i64(s.Slots)
	w.i64(s.TxData)
	w.i64(s.TxControl)
	w.i64(s.RxFrames)
	w.i64(s.Generated)
	w.i64(s.Forwarded)
	w.i64(s.SinkDelivered)
	w.i64(s.CommandsDelivered)
	w.i64(s.BulletinsDelivered)
	w.i64(s.DroppedQueue)
	w.i64(s.DroppedRetries)
	w.i64(s.Duplicates)
	w.i64(s.Evicted)
	w.i64(s.WatchdogRequeues)
}

func decodeStats(r *reader) mac.Stats {
	var s mac.Stats
	s.EnergyJoules = r.float()
	s.RadioOnTime = time.Duration(r.i64())
	s.Slots = r.i64()
	s.TxData = r.i64()
	s.TxControl = r.i64()
	s.RxFrames = r.i64()
	s.Generated = r.i64()
	s.Forwarded = r.i64()
	s.SinkDelivered = r.i64()
	s.CommandsDelivered = r.i64()
	s.BulletinsDelivered = r.i64()
	s.DroppedQueue = r.i64()
	s.DroppedRetries = r.i64()
	s.Duplicates = r.i64()
	s.Evicted = r.i64()
	s.WatchdogRequeues = r.i64()
	return s
}

func encodeNode(w *writer, st *mac.NodeState) {
	w.boolean(st.Synced)
	w.i64(st.SyncedAt)
	w.i64(st.LastRx)
	encodePackets(w, st.Queue)
	encodePackets(w, st.DownQueue)
	w.uvarint(uint64(len(st.Seen)))
	for _, k := range st.Seen {
		w.u64(uint64(k.Origin))
		w.u16(k.Flow)
		w.u16(k.Seq)
	}
	w.u16(st.DownSeq)
	w.u16(st.BcastSeq)
	w.u64(st.CoinState)
	w.boolean(st.Bcast != nil)
	if st.Bcast != nil {
		encodeFrame(w, &st.Bcast.Frame)
		w.intval(st.Bcast.Remaining)
	}
	w.u64(uint64(st.WdDst))
	w.intval(st.WdFails)
	encodeStats(w, &st.Stats)
}

func decodeNode(r *reader) *mac.NodeState {
	st := &mac.NodeState{}
	st.Synced = r.boolean()
	st.SyncedAt = r.i64()
	st.LastRx = r.i64()
	st.Queue = decodePackets(r)
	st.DownQueue = decodePackets(r)
	if n := r.count(3); n > 0 {
		st.Seen = make([]mac.SeenKeyState, n)
		for i := range st.Seen {
			st.Seen[i].Origin = topology.NodeID(r.u64())
			st.Seen[i].Flow = r.u16()
			st.Seen[i].Seq = r.u16()
		}
	}
	st.DownSeq = r.u16()
	st.BcastSeq = r.u16()
	st.CoinState = r.u64()
	if r.boolean() {
		b := &mac.BulletinState{}
		b.Frame = decodeFrame(r)
		b.Remaining = r.intval()
		st.Bcast = b
	}
	st.WdDst = topology.NodeID(r.u64())
	st.WdFails = r.intval()
	st.Stats = decodeStats(r)
	return st
}

func encodeMACs(w *writer, nodes []*mac.NodeState) {
	w.uvarint(uint64(len(nodes)))
	for _, n := range nodes {
		w.boolean(n != nil)
		if n != nil {
			encodeNode(w, n)
		}
	}
}

func decodeMACs(r *reader) []*mac.NodeState {
	n := r.count(1)
	out := make([]*mac.NodeState, n)
	for i := range out {
		if r.boolean() {
			out[i] = decodeNode(r)
		}
		if r.err != nil {
			return nil
		}
	}
	return out
}

// --- shared routing pieces ---

func encodeLinks(w *writer, ls []link.LinkState) {
	w.uvarint(uint64(len(ls)))
	for _, l := range ls {
		w.u64(uint64(l.Node))
		w.float(l.ETX)
		w.float(l.RSSAvg)
		w.intval(l.ConsecFails)
		w.boolean(l.TxSeen)
		w.intval(l.ResurrectCount)
	}
}

func decodeLinks(r *reader) []link.LinkState {
	n := r.count(20)
	if n == 0 {
		return nil
	}
	out := make([]link.LinkState, n)
	for i := range out {
		out[i].Node = topology.NodeID(r.u64())
		out[i].ETX = r.float()
		out[i].RSSAvg = r.float()
		out[i].ConsecFails = r.intval()
		out[i].TxSeen = r.boolean()
		out[i].ResurrectCount = r.intval()
	}
	return out
}

func encodeTrickle(w *writer, t *trickle.State) {
	w.i64(t.Interval)
	w.i64(t.IntervalStart)
	w.i64(t.FireAt)
	w.intval(t.Counter)
	w.boolean(t.Started)
}

func decodeTrickle(r *reader) trickle.State {
	var t trickle.State
	t.Interval = r.i64()
	t.IntervalStart = r.i64()
	t.FireAt = r.i64()
	t.Counter = r.intval()
	t.Started = r.boolean()
	return t
}

// --- DiGS stacks ---

func encodeDiGSRouter(w *writer, st *core.RouterState) {
	w.u16(st.Rank)
	w.float(st.ETXw)
	w.u64(uint64(st.Best))
	w.u64(uint64(st.Second))
	w.float(st.ETXaBest)
	w.float(st.ETXaSecond)
	w.uvarint(uint64(len(st.Neighbors)))
	for _, e := range st.Neighbors {
		w.u64(uint64(e.Node))
		w.u16(e.Rank)
		w.float(e.ETXw)
		w.i64(e.LastHeard)
	}
	w.uvarint(uint64(len(st.Children)))
	for _, c := range st.Children {
		w.u64(uint64(c.Node))
		w.u8(c.Role)
		w.i64(c.LastHeard)
	}
	encodeLinks(w, st.Links)
	w.i64(st.FirstParentAt)
	w.boolean(st.HasParentedAt)
	w.i64(st.ParentChanges)
	w.i64(st.ChildVersion)
}

func decodeDiGSRouter(r *reader) core.RouterState {
	var st core.RouterState
	st.Rank = r.u16()
	st.ETXw = r.float()
	st.Best = topology.NodeID(r.u64())
	st.Second = topology.NodeID(r.u64())
	st.ETXaBest = r.float()
	st.ETXaSecond = r.float()
	if n := r.count(12); n > 0 {
		st.Neighbors = make([]core.NeighborState, n)
		for i := range st.Neighbors {
			st.Neighbors[i].Node = topology.NodeID(r.u64())
			st.Neighbors[i].Rank = r.u16()
			st.Neighbors[i].ETXw = r.float()
			st.Neighbors[i].LastHeard = r.i64()
		}
	}
	if n := r.count(3); n > 0 {
		st.Children = make([]core.ChildState, n)
		for i := range st.Children {
			st.Children[i].Node = topology.NodeID(r.u64())
			st.Children[i].Role = r.u8()
			st.Children[i].LastHeard = r.i64()
		}
	}
	st.Links = decodeLinks(r)
	st.FirstParentAt = r.i64()
	st.HasParentedAt = r.boolean()
	st.ParentChanges = r.i64()
	st.ChildVersion = r.i64()
	return st
}

func encodeDiGSStack(w *writer, st *core.StackState) {
	encodeDiGSRouter(w, &st.Router)
	tr := st.Trickle
	encodeTrickle(w, &tr)
	w.u64(st.RNGDraws)
	w.uvarint(uint64(len(st.Pending)))
	for _, p := range st.Pending {
		w.u64(uint64(p.To))
		w.u8(p.Role)
		w.intval(p.Tries)
	}
	w.boolean(st.WantJoinIn)
	w.i64(st.NextMaintain)
	w.i64(st.NextSolicit)
	w.boolean(st.Synced)
	w.u64(uint64(st.LastBest))
	w.u64(uint64(st.LastSecond))
	w.boolean(st.BestConfirmed)
	w.boolean(st.SecondConfirmed)
	w.u64(uint64(st.FallbackParent))
}

func decodeDiGSStack(r *reader) *core.StackState {
	st := &core.StackState{}
	st.Router = decodeDiGSRouter(r)
	st.Trickle = decodeTrickle(r)
	st.RNGDraws = r.u64()
	if n := r.count(3); n > 0 {
		st.Pending = make([]core.PendingCallbackState, n)
		for i := range st.Pending {
			st.Pending[i].To = topology.NodeID(r.u64())
			st.Pending[i].Role = r.u8()
			st.Pending[i].Tries = r.intval()
		}
	}
	st.WantJoinIn = r.boolean()
	st.NextMaintain = r.i64()
	st.NextSolicit = r.i64()
	st.Synced = r.boolean()
	st.LastBest = topology.NodeID(r.u64())
	st.LastSecond = topology.NodeID(r.u64())
	st.BestConfirmed = r.boolean()
	st.SecondConfirmed = r.boolean()
	st.FallbackParent = topology.NodeID(r.u64())
	return st
}

// --- Orchestra stacks ---

func encodeRPLRouter(w *writer, st *rpl.RouterState) {
	w.u16(st.Rank)
	w.float(st.PathETX)
	w.u64(uint64(st.Parent))
	w.uvarint(uint64(len(st.Neighbors)))
	for _, e := range st.Neighbors {
		w.u64(uint64(e.Node))
		w.u16(e.Rank)
		w.float(e.PathETX)
		w.i64(e.LastHeard)
	}
	encodeLinks(w, st.Links)
	w.i64(st.FirstParentAt)
	w.boolean(st.HasParentedAt)
	w.i64(st.ParentChanges)
}

func decodeRPLRouter(r *reader) rpl.RouterState {
	var st rpl.RouterState
	st.Rank = r.u16()
	st.PathETX = r.float()
	st.Parent = topology.NodeID(r.u64())
	if n := r.count(12); n > 0 {
		st.Neighbors = make([]rpl.NeighborState, n)
		for i := range st.Neighbors {
			st.Neighbors[i].Node = topology.NodeID(r.u64())
			st.Neighbors[i].Rank = r.u16()
			st.Neighbors[i].PathETX = r.float()
			st.Neighbors[i].LastHeard = r.i64()
		}
	}
	st.Links = decodeLinks(r)
	st.FirstParentAt = r.i64()
	st.HasParentedAt = r.boolean()
	st.ParentChanges = r.i64()
	return st
}

func encodeOrchStack(w *writer, st *orchestra.StackState) {
	encodeRPLRouter(w, &st.Router)
	tr := st.Trickle
	encodeTrickle(w, &tr)
	w.u64(st.RNGDraws)
	w.boolean(st.WantDIO)
	w.i64(st.NextMaintain)
	w.i64(st.NextSolicit)
	w.boolean(st.Synced)
	w.intval(st.TxBackoff)
	w.boolean(st.HasChildSlots)
	if st.HasChildSlots {
		w.uvarint(uint64(len(st.ChildSlots)))
		for _, c := range st.ChildSlots {
			w.i64(c.Slot)
			w.u64(uint64(c.Node))
		}
	}
}

func decodeOrchStack(r *reader) *orchestra.StackState {
	st := &orchestra.StackState{}
	st.Router = decodeRPLRouter(r)
	st.Trickle = decodeTrickle(r)
	st.RNGDraws = r.u64()
	st.WantDIO = r.boolean()
	st.NextMaintain = r.i64()
	st.NextSolicit = r.i64()
	st.Synced = r.boolean()
	st.TxBackoff = r.intval()
	if r.boolean() {
		st.HasChildSlots = true
		if n := r.count(2); n > 0 {
			st.ChildSlots = make([]orchestra.ChildSlotState, n)
			for i := range st.ChildSlots {
				st.ChildSlots[i].Slot = r.i64()
				st.ChildSlots[i].Node = topology.NodeID(r.u64())
			}
		}
	}
	return st
}

// --- metrics ---

func encodeRecords(w *writer, rs []metrics.PacketRecord) {
	w.uvarint(uint64(len(rs)))
	for _, rec := range rs {
		w.u16(rec.Flow)
		w.u16(rec.Seq)
		w.i64(rec.ASN)
	}
}

func decodeRecords(r *reader) []metrics.PacketRecord {
	n := r.count(3)
	if n == 0 {
		return nil
	}
	out := make([]metrics.PacketRecord, n)
	for i := range out {
		out[i].Flow = r.u16()
		out[i].Seq = r.u16()
		out[i].ASN = r.i64()
	}
	return out
}

func encodeCollector(w *writer, st *metrics.CollectorState) {
	encodeRecords(w, st.Sent)
	encodeRecords(w, st.Delivered)
	w.i64(st.OutOfWindow)
	w.i64(st.DupDeliveries)
}

func decodeCollector(r *reader) *metrics.CollectorState {
	st := &metrics.CollectorState{}
	st.Sent = decodeRecords(r)
	st.Delivered = decodeRecords(r)
	st.OutOfWindow = r.i64()
	st.DupDeliveries = r.i64()
	return st
}
