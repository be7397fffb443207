package snapshot

import (
	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/topology"
)

// Controller-layer stack sections (wire format version 3).

func encodeNodeIDs(w *writer, ids []topology.NodeID) {
	w.uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.u64(uint64(id))
	}
}

func decodeNodeIDs(r *reader) []topology.NodeID {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]topology.NodeID, n)
	for i := range out {
		out[i] = topology.NodeID(r.u64())
	}
	return out
}

// --- SDN stacks ---

func encodeSDNNeighbors(w *writer, ns []controller.SDNReportNeighbor) {
	w.uvarint(uint64(len(ns)))
	for _, e := range ns {
		w.u64(uint64(e.Node))
		w.float(e.RSS)
	}
}

func decodeSDNNeighbors(r *reader) []controller.SDNReportNeighbor {
	n := r.count(9)
	if n == 0 {
		return nil
	}
	out := make([]controller.SDNReportNeighbor, n)
	for i := range out {
		out[i].Node = topology.NodeID(r.u64())
		out[i].RSS = r.float()
	}
	return out
}

func encodeSDNStack(w *writer, st *controller.SDNStackState) {
	w.boolean(st.Synced)
	w.u64(uint64(st.Uplink))
	w.u8(st.OwnHops)
	w.boolean(st.HasHops)
	if st.HasHops {
		w.uvarint(uint64(len(st.Hops)))
		for _, e := range st.Hops {
			w.u64(uint64(e.Node))
			w.u8(e.Hops)
			w.i64(e.Heard)
		}
	}
	w.boolean(st.HasRSS)
	if st.HasRSS {
		w.uvarint(uint64(len(st.RSS)))
		for _, e := range st.RSS {
			w.u64(uint64(e.Node))
			w.float(e.RSS)
			w.i64(e.Heard)
		}
	}
	w.i64(st.NextMaintain)
	w.i64(st.NextReport)
	w.u16(st.CfgEpoch)
	w.u64(uint64(st.Parent))
	encodeNodeIDs(w, st.Children)
	w.intval(st.ConsecParentFails)
	w.uvarint(uint64(len(st.CtrlQ)))
	for i := range st.CtrlQ {
		encodeFrame(w, &st.CtrlQ[i].Frame)
		w.intval(st.CtrlQ[i].Tries)
		w.i64(st.CtrlQ[i].NotBefore)
	}
	w.uvarint(uint64(len(st.Reports)))
	for i := range st.Reports {
		w.u64(uint64(st.Reports[i].Node))
		w.i64(st.Reports[i].ASN)
		encodeSDNNeighbors(w, st.Reports[i].Neigh)
	}
	w.u16(st.Epoch)
	w.i64(st.EpochCount)
	w.i64(st.NextRecompute)
	w.uvarint(uint64(len(st.LastSent)))
	for i := range st.LastSent {
		w.u64(uint64(st.LastSent[i].Node))
		w.u64(uint64(st.LastSent[i].Parent))
		encodeNodeIDs(w, st.LastSent[i].Children)
	}
}

func decodeSDNStack(r *reader) *controller.SDNStackState {
	st := &controller.SDNStackState{}
	st.Synced = r.boolean()
	st.Uplink = topology.NodeID(r.u64())
	st.OwnHops = r.u8()
	if r.boolean() {
		st.HasHops = true
		if n := r.count(3); n > 0 {
			st.Hops = make([]controller.SDNHopsState, n)
			for i := range st.Hops {
				st.Hops[i].Node = topology.NodeID(r.u64())
				st.Hops[i].Hops = r.u8()
				st.Hops[i].Heard = r.i64()
			}
		}
	}
	if r.boolean() {
		st.HasRSS = true
		if n := r.count(10); n > 0 {
			st.RSS = make([]controller.SDNRSSState, n)
			for i := range st.RSS {
				st.RSS[i].Node = topology.NodeID(r.u64())
				st.RSS[i].RSS = r.float()
				st.RSS[i].Heard = r.i64()
			}
		}
	}
	st.NextMaintain = r.i64()
	st.NextReport = r.i64()
	st.CfgEpoch = r.u16()
	st.Parent = topology.NodeID(r.u64())
	st.Children = decodeNodeIDs(r)
	st.ConsecParentFails = r.intval()
	if n := r.count(8); n > 0 {
		st.CtrlQ = make([]controller.SDNCtrlState, n)
		for i := range st.CtrlQ {
			st.CtrlQ[i].Frame = decodeFrame(r)
			st.CtrlQ[i].Tries = r.intval()
			st.CtrlQ[i].NotBefore = r.i64()
		}
	}
	if n := r.count(3); n > 0 {
		st.Reports = make([]controller.SDNReportState, n)
		for i := range st.Reports {
			st.Reports[i].Node = topology.NodeID(r.u64())
			st.Reports[i].ASN = r.i64()
			st.Reports[i].Neigh = decodeSDNNeighbors(r)
		}
	}
	st.Epoch = r.u16()
	st.EpochCount = r.i64()
	st.NextRecompute = r.i64()
	if n := r.count(3); n > 0 {
		st.LastSent = make([]controller.SDNSentState, n)
		for i := range st.LastSent {
			st.LastSent[i].Node = topology.NodeID(r.u64())
			st.LastSent[i].Parent = topology.NodeID(r.u64())
			st.LastSent[i].Children = decodeNodeIDs(r)
		}
	}
	return st
}

// --- adaptive stacks ---

func encodeAdaptiveStack(w *writer, st *controller.AdaptiveStackState) {
	encodeRPLRouter(w, &st.Router)
	tr := st.Trickle
	encodeTrickle(w, &tr)
	w.u64(st.RNGDraws)
	w.boolean(st.WantDIO)
	w.i64(st.NextMaintain)
	w.i64(st.NextSolicit)
	w.boolean(st.Synced)
	w.intval(st.TxCells)
	w.intval(st.IdleTicks)
	w.intval(st.FailsSinceTick)
	w.intval(st.SentSinceTick)
	w.boolean(st.HasNeighborCells)
	if st.HasNeighborCells {
		w.uvarint(uint64(len(st.NeighborCells)))
		for _, c := range st.NeighborCells {
			w.u64(uint64(c.Node))
			w.intval(c.Cells)
		}
	}
	w.boolean(st.HasChildCells)
	if st.HasChildCells {
		w.uvarint(uint64(len(st.ChildCells)))
		for _, c := range st.ChildCells {
			w.i64(c.Slot)
			w.u64(uint64(c.Node))
		}
	}
}

func decodeAdaptiveStack(r *reader) *controller.AdaptiveStackState {
	st := &controller.AdaptiveStackState{}
	st.Router = decodeRPLRouter(r)
	st.Trickle = decodeTrickle(r)
	st.RNGDraws = r.u64()
	st.WantDIO = r.boolean()
	st.NextMaintain = r.i64()
	st.NextSolicit = r.i64()
	st.Synced = r.boolean()
	st.TxCells = r.intval()
	st.IdleTicks = r.intval()
	st.FailsSinceTick = r.intval()
	st.SentSinceTick = r.intval()
	if r.boolean() {
		st.HasNeighborCells = true
		if n := r.count(2); n > 0 {
			st.NeighborCells = make([]controller.AdaptiveCellState, n)
			for i := range st.NeighborCells {
				st.NeighborCells[i].Node = topology.NodeID(r.u64())
				st.NeighborCells[i].Cells = r.intval()
			}
		}
	}
	if r.boolean() {
		st.HasChildCells = true
		if n := r.count(2); n > 0 {
			st.ChildCells = make([]controller.AdaptiveChildCellState, n)
			for i := range st.ChildCells {
				st.ChildCells[i].Slot = r.i64()
				st.ChildCells[i].Node = topology.NodeID(r.u64())
			}
		}
	}
	return st
}
