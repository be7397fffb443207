// Package experiments reproduces the paper's evaluation: one runner per
// figure of Section VII (plus the Figure 3/4/5 empirical study of Section
// IV). Each runner builds the relevant topology, boots DiGS and/or the
// Orchestra baseline through scenario.Build — the one construction path
// the CLIs, the server and the benchmark share — applies the figure's
// interference or failure scenario, and returns the series the figure
// plots.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/topology"
)

// Protocol is the registered scenario stack under test (see
// scenario.RegisteredStacks).
type Protocol string

// Protocols.
const (
	// DiGS is the paper's contribution.
	DiGS Protocol = snapshot.ProtocolDiGS
	// Orchestra is the RPL + Orchestra baseline.
	Orchestra Protocol = snapshot.ProtocolOrchestra
)

// figureNames are the names the figures print; other stacks print their
// registered name.
var figureNames = map[Protocol]string{DiGS: "DiGS", Orchestra: "Orchestra"}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	if name, ok := figureNames[p]; ok {
		return name
	}
	return string(p)
}

// params selects the protocol on the topology's network. DiGS schedules
// three attempts per slotframe where Orchestra has one, so equal-time
// retry persistence gives it a 3x MAC attempt budget — unless digsCfg
// overrides its configuration (ablations), which keeps the default budget.
func params(proto Protocol, topo *topology.Topology, seed int64, digsCfg *core.Config) scenario.Params {
	p := scenario.Params{Topology: topo, Protocol: string(proto), Seed: seed, DiGSConfig: digsCfg}
	if proto == DiGS && digsCfg == nil {
		p.MacBoost = 3
	}
	return p
}

// routeHistory is the per-node route history the DiGS and RPL stacks
// keep: when a node first chose a parent (Figure 13) and how often it has
// switched since (Figures 4 and 5).
type routeHistory interface {
	FirstParentAt() (sim.ASN, bool)
	ParentChanges() int64
}

// history returns node i's route history, or an error naming the stack
// when it keeps none.
func history(sc *scenario.Scenario, i int) (routeHistory, error) {
	h, ok := sc.Stack(i).(routeHistory)
	if !ok {
		return nil, fmt.Errorf("experiments: stack %q keeps no route history", sc.Params.Protocol)
	}
	return h, nil
}

// converge runs the network until every node has joined (or the budget
// runs out). It returns an error when convergence fails: the experiment
// would otherwise measure a half-formed network.
func converge(sc *scenario.Scenario, budget time.Duration) error {
	return convergeFraction(sc, budget, 1.0)
}

// convergeFraction accepts partial convergence: at least the given
// fraction of nodes joined (large sparse deployments can have corner
// stragglers that take tens of minutes, just as physical ones do).
func convergeFraction(sc *scenario.Scenario, budget time.Duration, frac float64) error {
	n := sc.Params.Topology.N()
	want := int(math.Ceil(frac * float64(n)))
	if _, ok := sc.NW.RunUntil(sim.SlotsFor(budget), func() bool {
		return sc.Joined() >= want
	}); !ok {
		return fmt.Errorf("experiments: only %d/%d nodes joined within %v (want %d)",
			sc.Joined(), n, budget, want)
	}
	return nil
}

// warmConverge brings a freshly built, never-stepped scenario to the
// converged + settled state a measurement campaign starts from. With a
// cache directory it restores a matching snapshot (see internal/snapshot)
// instead of re-running formation, storing one on miss; continuing from
// the restored state is bit-identical to having formed inline, so cached
// and uncached campaigns produce the same figures.
func warmConverge(sc *scenario.Scenario, cacheDir string, settle time.Duration) error {
	var cache *snapshot.Cache
	if cacheDir != "" {
		cache = &snapshot.Cache{Dir: cacheDir}
	}
	label := fmt.Sprintf("formed+%ds", int(settle.Seconds()))
	_, _, err := sc.WarmStart(cache, label, func() (map[string]string, error) {
		if err := converge(sc, 240*time.Second); err != nil {
			return nil, err
		}
		sc.NW.Run(sim.SlotsFor(settle))
		return nil, nil
	})
	return err
}

// netStats sums MAC counters across all nodes.
type netStats struct {
	energyJ   float64
	radioOn   time.Duration
	delivered int64
}

func statsSnapshot(sc *scenario.Scenario, n int) netStats {
	var s netStats
	for i := 1; i <= n; i++ {
		st := sc.MACNode(i).Stats()
		s.energyJ += st.EnergyJoules
		s.radioOn += st.RadioOnTime
		s.delivered += st.SinkDelivered
	}
	return s
}

// FlowSetResult is one flow set's measurement (one sample of the paper's
// CDFs).
type FlowSetResult struct {
	PDR              float64
	Latencies        []time.Duration
	PowerPerPacketMW float64
	DutyPerPacketPct float64
	DeliveredPackets int
	GeneratedPackets int
}

// FlowSetOptions parameterise a flow-set measurement campaign.
type FlowSetOptions struct {
	FlowSets     int
	FlowsPerSet  int
	PacketPeriod time.Duration
	// PacketsPerFlow per flow set window.
	PacketsPerFlow int
	// Drain is extra time after the last generation for in-flight packets.
	Drain time.Duration
	Seed  int64
	// FixedSources, when set, uses these sources for every flow set
	// instead of random draws.
	FixedSources []topology.NodeID
	// ExcludeSources are never drawn as random sources (e.g. motes
	// repurposed as jammers).
	ExcludeSources []topology.NodeID
}

// runFlowSets runs a sequence of flow sets on an already-converged
// network, one after another (the network stays up, as a real deployment
// would), and returns one result per flow set.
func runFlowSets(sc *scenario.Scenario, opts FlowSetOptions) ([]FlowSetResult, error) {
	nw, topo := sc.NW, sc.Params.Topology
	rng := rand.New(rand.NewSource(opts.Seed*31 + 7))
	results := make([]FlowSetResult, 0, opts.FlowSets)

	for set := 0; set < opts.FlowSets; set++ {
		var fset []flows.Flow
		if opts.FixedSources != nil {
			fset = flows.FixedSet(opts.FixedSources, opts.PacketPeriod)
		} else {
			var err error
			fset, err = flows.RandomSet(topo, opts.FlowsPerSet, opts.PacketPeriod, rng,
				opts.ExcludeSources...)
			if err != nil {
				return nil, err
			}
		}

		col := metrics.NewCollector()
		sc.OnDeliver(func(asn sim.ASN, f *sim.Frame) {
			col.Delivered(f.FlowID, f.Seq, asn)
		})
		// Sequence numbers must be unique across windows: the MAC's
		// duplicate suppression remembers (origin, flow, seq) end-to-end.
		seqBase := uint16(set * opts.PacketsPerFlow)
		flows.Schedule(nw, fset, opts.PacketsPerFlow, func(f flows.Flow, seq uint16, asn sim.ASN) {
			seq += seqBase
			col.Sent(f.ID, seq, asn)
			_ = sc.MACNode(int(f.Source)).InjectData(&sim.Frame{
				Origin: f.Source, FlowID: f.ID, Seq: seq, BornASN: asn,
			})
		})

		before := statsSnapshot(sc, topo.N())
		window := opts.PacketPeriod*time.Duration(opts.PacketsPerFlow) + opts.Drain
		startASN := nw.ASN()
		nw.Run(sim.SlotsFor(window))
		after := statsSnapshot(sc, topo.N())
		elapsed := sim.TimeAt(nw.ASN() - startASN)
		sc.OnDeliver(nil)

		// Quiesce: drain every forwarding queue before the next flow set
		// so one set's congestion does not bleed into the next (the
		// paper's flow sets are independent measurements).
		nw.RunUntil(sim.SlotsFor(3*time.Minute), func() bool {
			for i := 1; i <= topo.N(); i++ {
				if sc.MACNode(i).QueueLen() > 0 {
					return false
				}
			}
			return true
		})
		results = append(results, FlowSetResult{
			PDR:              col.PDR(),
			Latencies:        col.Latencies(),
			PowerPerPacketMW: metrics.PowerPerPacketMW(after.energyJ-before.energyJ, elapsed, col.DeliveredCount()),
			DutyPerPacketPct: metrics.DutyCyclePerPacket(after.radioOn-before.radioOn, topo.N(), elapsed, col.DeliveredCount()),
			DeliveredPackets: col.DeliveredCount(),
			GeneratedPackets: col.SentCount(),
		})
	}
	return results, nil
}

// PDRs extracts the per-flow-set PDR series.
func PDRs(rs []FlowSetResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.PDR
	}
	return out
}

// AllLatenciesMs pools every packet latency across flow sets, in
// milliseconds.
func AllLatenciesMs(rs []FlowSetResult) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, metrics.DurationsToMillis(r.Latencies)...)
	}
	return out
}

// PowersPerPacket extracts the per-flow-set power-per-packet series.
func PowersPerPacket(rs []FlowSetResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.PowerPerPacketMW
	}
	return out
}

// DutiesPerPacket extracts the per-flow-set duty-cycle-per-packet series.
func DutiesPerPacket(rs []FlowSetResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.DutyPerPacketPct
	}
	return out
}
