package snapshot

import (
	"reflect"
	"testing"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/rpl"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
	"github.com/digs-net/digs/internal/trickle"
)

func testMeta(proto string, nodes int) Meta {
	return Meta{
		Protocol: proto, Topology: "testbed-a", Nodes: nodes, NumAPs: 1,
		Seed: 7, Slot: 1234, ConfigHash: 99, Label: "t",
	}
}

func testNet(nodes int) *sim.NetworkState {
	return &sim.NetworkState{Seed: 7, ASN: 1234, Started: true, Failed: make([]bool, nodes+1)}
}

func testMACs(nodes int) []*mac.NodeState {
	out := make([]*mac.NodeState, nodes+1)
	for i := 1; i <= nodes; i++ {
		out[i] = &mac.NodeState{Synced: true, SyncedAt: int64(i)}
	}
	return out
}

// synthSDN drives every field of the SDN stack section: controller-only
// tables, bounded control queues with source-routed frames, and the
// nil-vs-empty table distinctions.
func synthSDN() *Snapshot {
	stacks := []any{
		nil,
		&controller.SDNStackState{ // controller: collected reports, dissemination dedup, epochs
			Synced: true, OwnHops: 0,
			HasHops: true, HasRSS: true,
			Hops:         []controller.SDNHopsState{{Node: 2, Hops: 1, Heard: 900}},
			RSS:          []controller.SDNRSSState{{Node: 2, RSS: -61.25, Heard: 901}, {Node: 3, RSS: -80, Heard: 800}},
			NextMaintain: 1300, NextReport: 0,
			CfgEpoch: 5, Parent: 0, Children: []topology.NodeID{2, 3},
			CtrlQ: []controller.SDNCtrlState{
				{
					Frame: mac.FrameState{
						Kind: 9, Src: 1, Dst: 2, Origin: 3, BornASN: 1200,
						Route:   []topology.NodeID{2, 3},
						Payload: []byte{0, 5, 0, 0, 0, 2, 0},
					},
					Tries: 2, NotBefore: 1250,
				},
			},
			Reports: []controller.SDNReportState{
				{Node: 2, ASN: 1100, Neigh: []controller.SDNReportNeighbor{{Node: 1, RSS: -60}, {Node: 3, RSS: -72}}},
				{Node: 3, ASN: 1050, Neigh: nil},
			},
			Epoch: 5, EpochCount: 5, NextRecompute: 2700,
			LastSent: []controller.SDNSentState{
				{Node: 2, Parent: 1, Children: []topology.NodeID{3}},
				{Node: 3, Parent: 2},
			},
		},
		&controller.SDNStackState{ // routed switch: configured parent, pending relay, fresh tables
			Synced: true, Uplink: 1, OwnHops: 1,
			HasHops: true, Hops: []controller.SDNHopsState{{Node: 1, Hops: 0, Heard: 1000}},
			HasRSS: true, RSS: []controller.SDNRSSState{{Node: 1, RSS: -55, Heard: 1000}},
			NextMaintain: 1290, NextReport: 2100,
			CfgEpoch: 5, Parent: 1, Children: []topology.NodeID{3},
			ConsecParentFails: 3,
			CtrlQ: []controller.SDNCtrlState{
				{Frame: mac.FrameState{Kind: 8, Src: 2, Dst: 1, Origin: 2, BornASN: 1280, Payload: []byte{1, 0, 0, 0, 1, 60}}},
			},
		},
		&controller.SDNStackState{ // never-synced node: nil tables survive as nil
			OwnHops: 255,
		},
	}
	return &Snapshot{Meta: testMeta(ProtocolSDN, 3), Net: testNet(3), MACs: testMACs(3), Stacks: stacks}
}

// synthAdaptive drives the adaptive allocator's section: RPL/trickle
// state, the cell budget counters, and both caches with their nil-vs-empty
// distinction.
func synthAdaptive() *Snapshot {
	stacks := []any{
		nil,
		&controller.AdaptiveStackState{
			Router:   rpl.RouterState{Rank: 4, Parent: 0},
			Trickle:  trickle.State{Interval: 100, Started: true},
			RNGDraws: 17,
			WantDIO:  true, NextMaintain: 500, NextSolicit: 700, Synced: true,
			TxCells: 2, IdleTicks: 1, FailsSinceTick: 3, SentSinceTick: 4,
			HasNeighborCells: true,
			NeighborCells:    []controller.AdaptiveCellState{{Node: 2, Cells: 2}, {Node: 3, Cells: 1}},
			HasChildCells:    true,
			ChildCells:       []controller.AdaptiveChildCellState{{Slot: 74, Node: 2}, {Slot: 111, Node: 3}},
		},
		&controller.AdaptiveStackState{
			Router:  rpl.RouterState{Rank: 8, Parent: 1},
			Trickle: trickle.State{Interval: 200},
			// Nil caches and an empty-but-refreshed child cache both
			// round-trip distinctly.
			HasChildCells: true,
			TxCells:       1,
		},
	}
	return &Snapshot{Meta: testMeta(ProtocolAdaptive, 2), Net: testNet(2), MACs: testMACs(2), Stacks: stacks}
}

// stacksRoundTrip checks that a snapshot's stack states survive the wire
// format field for field, and that re-encoding is canonical.
func stacksRoundTrip(t *testing.T, snap *Snapshot) {
	t.Helper()
	wire, err := Encode(snap)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(back.Stacks, snap.Stacks) {
		t.Fatalf("%s stacks did not round-trip:\n got %+v\nwant %+v", snap.Meta.Protocol, back.Stacks, snap.Stacks)
	}
	roundTrip(t, snap)
}

func TestSDNStackStateRoundTrip(t *testing.T)      { stacksRoundTrip(t, synthSDN()) }
func TestAdaptiveStackStateRoundTrip(t *testing.T) { stacksRoundTrip(t, synthAdaptive()) }

// TestValidateControllerSections rejects snapshots whose protocol and stack
// sections disagree.
func TestValidateControllerSections(t *testing.T) {
	snap := &Snapshot{
		Meta:   testMeta(ProtocolSDN, 2),
		Net:    testNet(2),
		MACs:   testMACs(2),
		Stacks: []any{nil, &controller.SDNStackState{}}, // 2 entries for 2 nodes: wrong
	}
	if _, err := Encode(snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	wire, _ := Encode(snap)
	if _, err := Decode(wire); err == nil {
		t.Fatal("decode accepted an sdn snapshot with a short stack section")
	}
}
