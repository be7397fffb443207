package topology

import (
	"math"
	"testing"
)

// TestShortestPathsMultiSource pins the shared Dijkstra's contract: every
// node hangs off its nearest source, equal-cost ties go to the lower ID,
// and unreached nodes keep +Inf with no predecessor.
func TestShortestPathsMultiSource(t *testing.T) {
	// Sources 1 and 2. Node 5 is 2 away from both 3 and 4 (each one hop
	// from a different source): the tie goes to 3. Node 6 is isolated.
	edges := map[NodeID][]struct {
		v NodeID
		w float64
	}{
		1: {{3, 1}},
		2: {{4, 1}},
		3: {{1, 1}, {5, 1}},
		4: {{2, 1}, {5, 1}},
		5: {{3, 1}, {4, 1}},
	}
	dist, prev := ShortestPaths(7, []NodeID{2, 1, 99}, func(u NodeID, relax func(NodeID, float64)) {
		for _, e := range edges[u] {
			relax(e.v, e.w)
		}
	})
	wantDist := []float64{math.Inf(1), 0, 0, 1, 1, 2, math.Inf(1)}
	wantPrev := []NodeID{0, 0, 0, 1, 2, 3, 0}
	for i := range wantDist {
		if dist[i] != wantDist[i] || prev[i] != wantPrev[i] {
			t.Errorf("node %d: dist %v prev %d, want %v and %d", i, dist[i], prev[i], wantDist[i], wantPrev[i])
		}
	}
}
