package rpl

import (
	"sort"

	"github.com/digs-net/digs/internal/link"
	"github.com/digs-net/digs/internal/topology"
)

// NeighborState is one RPL neighbour-table entry as plain old data.
type NeighborState struct {
	Node      topology.NodeID
	Rank      uint16
	PathETX   float64
	LastHeard int64
}

// RouterState is the complete mutable RPL routing state of one node.
type RouterState struct {
	Rank          uint16
	PathETX       float64
	Parent        topology.NodeID
	Neighbors     []NeighborState // sorted by node ID
	Links         []link.LinkState
	FirstParentAt int64
	HasParentedAt bool
	ParentChanges int64
}

// CaptureState snapshots the router, with the neighbour table sorted for a
// stable wire form.
func (r *Router) CaptureState() RouterState {
	st := RouterState{
		Rank:          r.rank,
		PathETX:       r.pathETX,
		Parent:        r.parent,
		Links:         r.est.CaptureState(),
		FirstParentAt: r.firstParentAt,
		HasParentedAt: r.hasParentedAt,
		ParentChanges: r.parentChanges,
	}
	if len(r.neighbors) > 0 {
		st.Neighbors = make([]NeighborState, 0, len(r.neighbors))
		for id, e := range r.neighbors {
			st.Neighbors = append(st.Neighbors, NeighborState{Node: id, Rank: e.rank,
				PathETX: e.pathETX, LastHeard: e.lastHeard})
		}
		sort.Slice(st.Neighbors, func(i, j int) bool { return st.Neighbors[i].Node < st.Neighbors[j].Node })
	}
	return st
}

// RestoreState overlays a captured routing state. The OnRouteChange
// callback installed on the freshly built router survives.
func (r *Router) RestoreState(st RouterState) {
	r.rank = st.Rank
	r.pathETX = st.PathETX
	r.parent = st.Parent
	r.est.RestoreState(st.Links)
	r.neighbors = make(map[topology.NodeID]neighborEntry, len(st.Neighbors))
	for _, e := range st.Neighbors {
		r.neighbors[e.Node] = neighborEntry{rank: e.Rank, pathETX: e.PathETX, lastHeard: e.LastHeard}
	}
	r.firstParentAt = st.FirstParentAt
	r.hasParentedAt = st.HasParentedAt
	r.parentChanges = st.ParentChanges
}
