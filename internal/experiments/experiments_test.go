package experiments

import (
	"testing"
	"time"

	"github.com/digs-net/digs/internal/metrics"
)

func TestFig3Shape(t *testing.T) {
	rows, err := RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Figure 3 has %d bars, want 4", len(rows))
	}
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Topology] = r
		if r.Total != r.Collect+r.Compute+r.Disseminate {
			t.Fatalf("%s: total mismatch", r.Topology)
		}
	}
	// Full testbeds take several times longer than half testbeds, and the
	// absolute scale is minutes (the paper: 203/506 s and 191/443 s).
	if byName["testbed-a"].Total < 2*byName["half-testbed-a"].Total {
		t.Fatalf("full A (%v) vs half A (%v): scaling too flat",
			byName["testbed-a"].Total, byName["half-testbed-a"].Total)
	}
	if byName["testbed-a"].Total < 100*time.Second {
		t.Fatalf("full A update %v; want minutes", byName["testbed-a"].Total)
	}
}

func TestInterferenceComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	opts := DefaultInterferenceOptions("A")
	opts.FlowSets = 20
	opts.PacketsPerFlow = 12
	res, err := RunInterference(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DiGS) != opts.FlowSets || len(res.Orchestra) != opts.FlowSets {
		t.Fatalf("flow set counts: %d / %d", len(res.DiGS), len(res.Orchestra))
	}

	dPDR := metrics.Mean(PDRs(res.DiGS))
	oPDR := metrics.Mean(PDRs(res.Orchestra))
	t.Logf("PDR under interference: DiGS %.3f, Orchestra %.3f", dPDR, oPDR)
	// Figure 9(a): DiGS delivers more than Orchestra under jamming.
	if dPDR < oPDR {
		t.Errorf("DiGS PDR %.3f below Orchestra %.3f under interference", dPDR, oPDR)
	}
	if dPDR < 0.75 {
		t.Errorf("DiGS PDR %.3f unreasonably low", dPDR)
	}

	dLat := metrics.Mean(AllLatenciesMs(res.DiGS))
	oLat := metrics.Mean(AllLatenciesMs(res.Orchestra))
	t.Logf("mean latency: DiGS %.0f ms, Orchestra %.0f ms", dLat, oLat)
	// Figure 9(b): DiGS's latency beats Orchestra's (the mean captures
	// Orchestra's heavy retransmission tail).
	if dLat > oLat {
		t.Errorf("DiGS mean latency %.0f ms above Orchestra %.0f ms", dLat, oLat)
	}
}

func TestFig9fMicrobenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	res, err := RunFig9f(DiGS, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delivered) == 0 {
		t.Fatal("no flows measured")
	}
	// Packets before the burst must flow.
	okBefore := 0
	for _, seqs := range res.Delivered {
		if seqs[74] {
			okBefore++
		}
	}
	if okBefore == 0 {
		t.Fatal("nothing delivered even before the jammer burst")
	}
}

func TestFig13JoinTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	res, err := RunFig13(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DiGS) != 48 || len(res.Orchestra) != 48 {
		t.Fatalf("join-time sample counts %d/%d, want 48 each", len(res.DiGS), len(res.Orchestra))
	}
	for _, d := range res.DiGS {
		if d < 0 || d > 5*time.Minute {
			t.Fatalf("DiGS join time %v out of range", d)
		}
	}
}

func TestRepairSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	opts := DefaultRepairOptions()
	opts.JammerCounts = []int{2}
	opts.Repetitions = 1
	rs, err := RunFig4And5(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d results", len(rs))
	}
	if len(rs[0].FlowPDRs) == 0 {
		t.Fatal("no flow PDRs measured")
	}
	if rs[0].RepairTime < 0 || rs[0].RepairTime > repairBudget {
		t.Fatalf("repair time %v out of range", rs[0].RepairTime)
	}
}

func TestFailureComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	opts := DefaultFailureOptions() // 4 repetitions x 4 cumulative victims
	digs, orch, err := RunFig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	if digs.TotalFlows == 0 || orch.TotalFlows == 0 {
		t.Fatalf("no flows measured: DiGS %d, Orchestra %d", digs.TotalFlows, orch.TotalFlows)
	}
	dPDR := metrics.Mean(digs.FlowPDRs)
	oPDR := metrics.Mean(orch.FlowPDRs)
	t.Logf("PDR with router failures: DiGS %.3f (disconnected %d/%d), Orchestra %.3f (disconnected %d/%d)",
		dPDR, digs.DisconnectedFlows, digs.TotalFlows, oPDR, orch.DisconnectedFlows, orch.TotalFlows)
	// Figure 11(a): DiGS keeps flows alive through failures. A small
	// tolerance absorbs seed noise in this reduced campaign; the full
	// campaign (digs-bench -fig 11 -full) shows the clear gap.
	if dPDR < oPDR-0.03 {
		t.Errorf("DiGS PDR %.3f below Orchestra %.3f under node failure", dPDR, oPDR)
	}
}

func TestLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	opts := LargeScaleOptions{
		Nodes: 40, AreaM: 160, Disturbers: 2,
		FlowSets: 2, FlowsPerSet: 6, PacketsPerFlow: 8, Seed: 7,
	}
	res, err := RunFig12(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DiGS) != 2 || len(res.Orchestra) != 2 {
		t.Fatalf("flow set counts %d/%d", len(res.DiGS), len(res.Orchestra))
	}
	for _, r := range append(res.DiGS, res.Orchestra...) {
		if r.GeneratedPackets != 6*8 {
			t.Fatalf("generated %d packets, want 48", r.GeneratedPackets)
		}
		if r.PDR < 0 || r.PDR > 1 {
			t.Fatalf("PDR %v out of range", r.PDR)
		}
	}
	// The series extractors cover every flow set.
	if len(PowersPerPacket(res.DiGS)) != 2 || len(DutiesPerPacket(res.DiGS)) != 2 {
		t.Fatal("series extractors lost flow sets")
	}
}

func TestWhartFailureContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	clean, failed, err := RunWhartFailure(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static WirelessHART: clean %.3f, after failure %.3f", clean, failed)
	if clean < 0.9 {
		t.Fatalf("static schedule clean PDR %.3f, want >= 0.9", clean)
	}
	if failed >= clean {
		t.Fatalf("failure did not degrade the static schedule: %.3f -> %.3f", clean, failed)
	}
}

func TestFig11bMicroSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulation")
	}
	res, err := RunFig11b(DiGS, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromSeq != 30 || res.ToSeq != 40 {
		t.Fatalf("window [%d, %d], want [30, 40]", res.FromSeq, res.ToSeq)
	}
	if len(res.Delivered) != 8 {
		t.Fatalf("measured %d flows, want 8", len(res.Delivered))
	}
}

func TestProtocolString(t *testing.T) {
	if DiGS.String() != "DiGS" || Orchestra.String() != "Orchestra" {
		t.Fatal("protocol names wrong")
	}
	if Protocol("whart").String() != "whart" {
		t.Fatal("other stacks must print their registered name")
	}
}

func TestRepairTimesSecondsExtractor(t *testing.T) {
	rs := []RepairResult{{RepairTime: 30 * time.Second}, {RepairTime: time.Minute}}
	got := RepairTimesSeconds(rs)
	if len(got) != 2 || got[0] != 30 || got[1] != 60 {
		t.Fatalf("RepairTimesSeconds = %v", got)
	}
}
