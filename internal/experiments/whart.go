package experiments

import (
	"time"

	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/topology"
)

// RunWhartFailure runs the executable centralized baseline through the
// node-failure scenario and returns its PDR before and after its busiest
// primary router dies. The static schedule never recovers — the contrast
// the paper's Figure 3 motivation builds on.
func RunWhartFailure(seed int64) (clean, failed float64, err error) {
	topo := topology.TestbedA()
	// The scenario's default 5 s period dimensions the manager's schedule
	// for the suggested sources, flow IDs 1..n in source order.
	sc, err := scenario.Build(scenario.Params{Topology: topo, Protocol: snapshot.ProtocolWHART, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	nw := sc.NW
	nw.Run(sim.SlotsFor(60 * time.Second)) // time sync

	window := func(seqBase uint16) float64 {
		col := metrics.NewCollector()
		sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
		for p := 0; p < 12; p++ {
			for i, src := range topo.SuggestedSources {
				flow, seq := uint16(i+1), seqBase+uint16(p)
				col.Sent(flow, seq, nw.ASN())
				_ = sc.MACNode(int(src)).InjectData(&sim.Frame{
					Origin: src, FlowID: flow, Seq: seq, BornASN: nw.ASN(),
				})
			}
			nw.Run(500)
		}
		nw.Run(sim.SlotsFor(15 * time.Second))
		sc.OnDeliver(nil)
		return col.PDR()
	}

	clean = window(0)

	// Kill the most-used primary router (the lowest ID among equals).
	use := make([]int, topo.N()+1)
	for _, src := range topo.SuggestedSources {
		for cur := src; !topo.IsAP(cur); {
			cur, _ = sc.Stack(int(cur)).Parents()
			use[cur]++
		}
	}
	var victim topology.NodeID
	most := 0
	for i, n := range use {
		if id := topology.NodeID(i); n > most && !topo.IsAP(id) {
			victim, most = id, n
		}
	}
	if victim != 0 {
		nw.Fail(victim)
	}
	failed = window(1000)
	return clean, failed, nil
}
