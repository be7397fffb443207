package topology

import "math"

// ShortestPaths is the deterministic multi-source Dijkstra behind the
// centralized route computations (the WirelessHART Network Manager and
// the sdn controller). Nodes are the IDs 1..n-1, and dist and prev come
// back as dense arrays indexed by NodeID. Sources start at distance 0
// (IDs outside 1..n-1 are ignored). Each round settles the unsettled node
// of least distance, ties going to the lowest ID, and calls edges(u,
// relax), which must call relax(v, w) for every edge u→v of weight w ≥ 0.
// Unreached nodes keep dist +Inf; prev is 0 for sources and unreached
// nodes. It runs in O(n²), which suits the deployment sizes a central
// manager handles.
func ShortestPaths(n int, sources []NodeID, edges func(u NodeID, relax func(v NodeID, w float64))) (dist []float64, prev []NodeID) {
	dist = make([]float64, n)
	prev = make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	for _, s := range sources {
		if s > 0 && int(s) < n {
			dist[s] = 0
		}
	}
	var u NodeID
	relax := func(v NodeID, w float64) {
		if d := dist[u] + w; !done[v] && d < dist[v] {
			dist[v], prev[v] = d, u
		}
	}
	for {
		u = 0
		for i := 1; i < n; i++ {
			if !done[i] && dist[i] < math.Inf(1) && (u == 0 || dist[i] < dist[u]) {
				u = NodeID(i)
			}
		}
		if u == 0 {
			return dist, prev
		}
		done[u] = true
		edges(u, relax)
	}
}
