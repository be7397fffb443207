package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/telemetry"
)

// testbed-arena: a closed loop of sequential RunSpec calls over the four
// arenaStacks on both paper testbeds, each spec under the fig8 jammer
// plan with the invariant monitor and a telemetry aggregate attached. One
// round runs all eight (stack, testbed) pairs with one seed; the loop
// stops at a round boundary once the run's time is up, so every run
// weighs the pairs equally. An operation is one spec.
var arenaTestbeds = []string{"testbed-a", "testbed-b"}

const arenaSetupReps = 9

type arenaPair struct{ topology, stack string }

func arenaPairs() []arenaPair {
	var ps []arenaPair
	for _, tb := range arenaTestbeds {
		for _, st := range arenaStacks {
			ps = append(ps, arenaPair{tb, st})
		}
	}
	return ps
}

func arenaSpec(p arenaPair, seed int64) scenario.Spec {
	return scenario.Spec{
		Topology: p.topology, Protocol: p.stack, Seed: seed,
		PlanName: "fig8", Invariants: true,
	}
}

func arenaWorkload(r *run) error {
	pairs := arenaPairs()
	// Setup: every pairing must build before the loop starts. The last
	// repetition's scenarios stay reachable through the timed phase, so
	// live_heap_mb counts the stacks' built state.
	var setups []float64
	built := make([]*scenario.Scenario, len(pairs))
	for i := 0; i < arenaSetupReps; i++ {
		runtime.GC() // each repetition starts from a clean heap, as a single set-up would
		t0 := time.Now()
		for j, p := range pairs {
			sc, err := scenario.Build(scenario.Params{TopologyName: p.topology, Protocol: p.stack, Seed: r.seed})
			if err != nil {
				return fmt.Errorf("arena setup %s/%s: %w", p.stack, p.topology, err)
			}
			built[j] = sc
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setup = time.Duration(median(setups) * float64(time.Second))

	perStack := map[string]*latencies{}
	for _, s := range arenaStacks {
		perStack[s] = &latencies{}
	}
	formSlots := map[string]int64{}
	var events, faults, reconverged, violations, repairs int64
	// One window over whole rounds: a round's cost varies with its seed,
	// so the mean over the run is steadier than a median over rounds.
	start, m := time.Now(), startMeter(0)
	var specs int64
	for round := int64(0); round == 0 || time.Since(start) < r.seconds; round++ {
		seed := r.seed*1000 + round
		root := r.tr.begin("arena.round", fmt.Sprintf("round-%d", seed), 0)
		for _, p := range pairs {
			spec := arenaSpec(p, seed)
			agg := telemetry.NewAggregate(0)
			op := fmt.Sprintf("%s/%s/%d", p.stack, p.topology, seed)
			t0 := time.Now()
			var res *scenario.Result
			var err error
			r.tr.do("scenario.RunSpec", op, root, func(int) {
				res, _, err = scenario.RunSpec(context.Background(), spec, scenario.RunOpts{Tracer: agg})
			})
			perStack[p.stack].add(ms(time.Since(t0)))
			specs++
			m.add(1)
			if err != nil {
				r.count(fmt.Errorf("arena %s: %w", op, err))
				continue
			}
			r.count(arenaCheck(res))
			if round == 0 {
				h, err := res.HashResult()
				r.count(err)
				r.addDigest("%s result=%s", op, h)
				formSlots[p.stack] += res.FormationSlots
				events += agg.Events()
				faults += agg.Faults()
				reconverged += agg.Reconverged()
				violations += int64(res.Violations)
				repairs += int64(res.Repairs)
			}
		}
		r.tr.end(root)
	}
	r.endTimed(m)
	runtime.KeepAlive(built)

	r.report("specs_per_s", float64(specs)/r.wall.Seconds(), "1/s", int(specs))
	for _, s := range arenaStacks {
		l := perStack[s]
		r.report("spec_ms."+s, median(l.ms), "ms", len(l.ms))
		r.setLayer("arena."+s+".spec_ms", median(l.ms))
		r.setLayer("arena."+s+".form_slots", float64(formSlots[s]))
	}
	r.setLayer("telemetry.events", float64(events))
	r.setLayer("chaos.faults", float64(faults))
	r.setLayer("chaos.reconverged", float64(reconverged))
	r.setLayer("invariant.violations", float64(violations))
	r.setLayer("invariant.repairs", float64(repairs))
	return nil
}

// arenaCheck validates one spec's result without golden values. RunSpec
// returns an error when the join target is not met, so a returned result
// met formation; JoinedAtForm is read after the 30 s settling margin and
// may sit below the target when a node re-parents, so it only has to be
// positive. The flow totals must be consistent.
func arenaCheck(res *scenario.Result) error {
	switch {
	case res.JoinedAtForm < 1 || res.JoinedAtForm > res.Nodes:
		return fmt.Errorf("arena %s/%s/%d: %d/%d joined at formation", res.Protocol, res.Topology, res.Seed, res.JoinedAtForm, res.Nodes)
	case res.Delivered > res.Sent:
		return fmt.Errorf("arena %s/%s/%d: delivered %d > sent %d", res.Protocol, res.Topology, res.Seed, res.Delivered, res.Sent)
	case res.Sent == 0:
		return fmt.Errorf("arena %s/%s/%d: no packets sent", res.Protocol, res.Topology, res.Seed)
	}
	return nil
}
