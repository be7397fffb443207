package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/phy"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// plant-1k: the 1002-node generated plant on the scale engine at a fixed
// 2 shards — cold formation to the 0.9 join target, then a window with
// the deployment's suggested flows live, advanced in fixed steps until
// the run's time is up. An operation is one simulated slot of the whole
// network, so ops_per_s × nodes is node-slots per second.
const (
	plantTopology = "gen-plant-1000-3"
	plantShards   = 2
	plantReps     = 15   // setup repetitions; setup_s is their median
	plantStep     = 100  // slots per timed window step
	plantCheck    = 6000 // window slots after which the digest is taken
	plantJoin     = 0.9
	plantPeriod   = 5 * time.Second
)

func plantWorkload(r *run) error {
	op := fmt.Sprintf("plant-%d", r.seed)
	var sc *scenario.Scenario
	var topo *topology.Topology
	var setups []float64
	var gen, build latencies
	for i := 0; i < plantReps; i++ {
		var err error
		runtime.GC() // each repetition starts from a clean heap, as a single set-up would
		root := r.tr.begin("plant.setup", op, 0)
		t0 := time.Now()
		r.tr.do("topology.PickTopology", op, root, func(int) { topo, err = scenario.PickTopology(plantTopology) })
		if err != nil {
			return err
		}
		t1 := time.Now()
		r.tr.do("scenario.Build", op, root, func(int) {
			sc, err = scenario.Build(scenario.Params{
				Topology: topo, TopologyName: plantTopology, Protocol: "digs",
				Seed: r.seed, Shards: plantShards,
			})
		})
		if err != nil {
			return err
		}
		t2 := time.Now()
		r.tr.end(root)
		gen.add(ms(t1.Sub(t0)))
		build.add(ms(t2.Sub(t1)))
		setups = append(setups, t2.Sub(t0).Seconds())
	}
	r.setup = time.Duration(median(setups) * float64(time.Second))
	r.setLayer("topology.gen_ms", median(gen.ms))
	r.setLayer("scenario.build_ms", median(build.ms))
	runtime.GC() // the discarded builds are not the window's garbage

	nw := sc.NW
	n := topo.N()
	target := int(math.Ceil(plantJoin * float64(n)))
	deadline := time.Now().Add(r.seconds)

	// Formation.
	formStart := time.Now()
	root := r.tr.begin("plant.formation", op, 0)
	maxSlots := sim.SlotsFor(30 * time.Minute)
	var formed int64
	ok := false
	for formed < maxSlots && !ok {
		var k int64
		r.tr.do("sim.Network.RunUntil", op, root, func(int) {
			k, ok = nw.RunUntil(min(5000, maxSlots-formed), func() bool { return sc.Joined() >= target })
		})
		formed += k
	}
	r.tr.end(root)
	formWall := time.Since(formStart)
	r.check(ok, "plant formation: %d/%d joined, target %d", sc.Joined(), n, target)
	r.report("form_s", formWall.Seconds(), "s", 0)
	r.report("form_slots", float64(formed), "count", 0)
	r.setLayer("sim.form_slots", float64(formed))
	r.setLayer("sim.form_ns_per_node_slot", float64(formWall.Nanoseconds())/float64(formed)/float64(n))
	r.addDigest("formation slots=%d joined=%d", formed, sc.Joined())

	// Window: the suggested flows, as RunSpec drives them.
	col := metrics.NewCollector()
	sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) { col.Delivered(f.FlowID, f.Seq, asn) })
	fset := flows.FixedSet(topo.SuggestedSources, plantPeriod)
	flows.Schedule(nw, fset, int(time.Hour/plantPeriod), func(f flows.Flow, seq uint16, asn sim.ASN) {
		col.Sent(f.ID, seq, asn)
		_ = sc.MACNode(int(f.Source)).InjectData(&sim.Frame{
			Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: asn,
		})
	})

	busy0 := nw.ShardBusy()
	var ms0 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	var steps latencies
	var slots int64
	m := startMeter(meterWindow)
	root = r.tr.begin("plant.window", op, 0)
	for slots < plantCheck || time.Now().Before(deadline) {
		t0 := time.Now()
		r.tr.do("sim.Network.Run", op, root, func(int) { nw.Run(plantStep) })
		steps.add(ms(time.Since(t0)))
		slots += plantStep
		m.add(plantStep)
		if slots == plantCheck {
			plantCheckpoint(r, sc, n, col)
		}
	}
	r.tr.end(root)
	busy := nw.ShardBusy()
	var ms1 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&ms1)
	}
	r.endTimed(m)

	sent, dlv := col.SentCount(), col.DeliveredCount()
	r.check(sent > 0 && dlv > 0, "plant window: %d sent, %d delivered (PDR must be > 0)", sent, dlv)
	r.check(dlv <= sent, "plant window: delivered %d > sent %d", dlv, sent)
	r.report("window_slots", float64(slots), "count", 0)
	r.report("node_slots_per_s", float64(slots)*float64(n)/r.wall.Seconds(), "1/s", 0)
	ss := r.reportLatency("step", &steps)
	r.report("median_step_ops_per_s", plantStep/ss.P50*1000, "1/s", 0)
	r.report("pdr", col.PDR(), "ratio", sent)

	if r.tr != nil {
		var sum, maxBusy time.Duration
		for i := range busy {
			d := busy[i] - busy0[i]
			sum += d
			maxBusy = max(maxBusy, d)
		}
		r.setLayer("sim.window_ns_per_node_slot", float64(r.wall.Nanoseconds())/float64(slots)/float64(n))
		r.setLayer("sim.shard_busy_s", sum.Seconds())
		r.setLayer("sim.parallel_eff", sum.Seconds()/(float64(len(busy))*r.wall.Seconds()))
		r.setLayer("sim.outside_shards_s", (r.wall - maxBusy).Seconds())
		r.setLayer("sim.mallocs_per_slot", float64(ms1.Mallocs-ms0.Mallocs)/float64(slots))
		r.setLayer("sim.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	}
	runtime.KeepAlive(sc) // the network is the live heap being measured
	return nil
}

// plantCheckpoint records the deterministic state at a fixed window
// slot: MAC counters summed over every node, and the flows' totals.
func plantCheckpoint(r *run, sc *scenario.Scenario, n int, col *metrics.Collector) {
	var txData, txCtl, radioOn, nodeSlots int64
	for i := 1; i <= n; i++ {
		st := sc.MACNode(i).Stats()
		txData += st.TxData
		txCtl += st.TxControl
		radioOn += int64(st.RadioOnTime)
		nodeSlots += st.Slots
	}
	dlv := col.DeliveredCount()
	r.addDigest("checkpoint asn=%d tx_data=%d tx_ctl=%d radio_on=%d sent=%d delivered=%d",
		sc.NW.ASN(), txData, txCtl, radioOn, col.SentCount(), dlv)
	if dlv > 0 {
		r.setLayer("mac.tx_per_delivered", float64(txData)/float64(dlv))
	}
	if txData+txCtl > 0 {
		r.setLayer("mac.control_share", float64(txCtl)/float64(txData+txCtl))
	}
	if nodeSlots > 0 {
		r.setLayer("mac.duty_cycle", float64(radioOn)/(float64(nodeSlots)*float64(phy.SlotDuration)))
	}
}
