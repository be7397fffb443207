// Package snapshot implements the deterministic checkpoint/restore layer:
// a versioned, self-describing binary codec over the plain-old-data state
// every stateful package exports (sim.NetworkState, mac.NodeState, the
// protocol StackStates, metrics.CollectorState). A snapshot taken at a
// quiesce point restores into a freshly built scenario — same topology,
// configuration and seeds — such that continuing the run is bit-identical
// to never having stopped: every RNG stream position, queue, routing
// table, timer and counter round-trips exactly.
//
// What is not captured: scheduled event closures and interferers (the
// scenario layer re-schedules them after restore; taking a snapshot while
// any exist is an error), telemetry sinks (external observers, re-attached
// by the caller), and everything construction-derived (schedules, RSS
// matrices, wiring), which the deterministic build path reproduces.
package snapshot

import (
	"fmt"
	"hash/fnv"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/metrics"
	"github.com/digs-net/digs/internal/sim"
)

// Protocol identifiers stored in snapshot metadata.
const (
	ProtocolDiGS      = "digs"
	ProtocolOrchestra = "orchestra"
	ProtocolWHART     = "whart"
	ProtocolSDN       = "sdn"
	ProtocolAdaptive  = "adaptive"
)

// Meta is the self-describing header of a snapshot: everything a consumer
// needs to rebuild the scenario the state overlays onto, plus free-form
// labelling for caches and tooling.
type Meta struct {
	// Protocol is one of the Protocol* constants.
	Protocol string
	// Topology names the deployment (e.g. "testbed-a"); the restoring
	// side resolves it to the same generator the taking side used.
	Topology string
	Nodes    int
	NumAPs   int
	// Seed is the scenario seed: the sim.Network seed, from which the
	// per-node stack seeds derive in the build path.
	Seed int64
	// Slot is the ASN the snapshot was taken at.
	Slot int64
	// ConfigHash fingerprints the build configuration (HashConfig). A
	// restore under a different configuration would not be the same
	// simulation; consumers compare fingerprints before restoring.
	ConfigHash uint64
	// Label tags the scenario phase (e.g. "formed+30s"); the snapshot
	// cache keys on it alongside topology/protocol/seed/config.
	Label string
	// Extra carries free-form key/value pairs (e.g. the formation length
	// a warm-started run reports); encoded sorted by key.
	Extra map[string]string
}

// Snapshot is a fully decoded checkpoint.
type Snapshot struct {
	Meta Meta
	Net  *sim.NetworkState
	// MACs is indexed by node ID (entry 0 nil), length Nodes+1.
	MACs []*mac.NodeState
	// Stacks holds every node's protocol-stack state, indexed by node ID
	// (entry 0 nil), length Nodes+1. The element type is the stack's own
	// state struct (*core.StackState for digs, and so on; see stackTable).
	// It is nil for stacks without a section: the WirelessHART stack is
	// stateless beyond its MAC nodes.
	Stacks []any
	// Metrics optionally carries an in-window collector (snapshots taken
	// mid-measurement).
	Metrics *metrics.CollectorState

	// SectionSizes reports the encoded byte size per section tag after a
	// Decode (inspection/tooling); Encode ignores it.
	SectionSizes map[string]int
}

// HashConfig fingerprints build configuration values. Pass plain-old-data
// structs (mac.Config, core.Config, orchestra.Config, slotframe lengths…);
// the hash is over their printed form, stable across processes.
func HashConfig(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v|", p)
	}
	return h.Sum64()
}

func captureMACs(nodes []*mac.Node) []*mac.NodeState {
	out := make([]*mac.NodeState, len(nodes))
	for i, n := range nodes {
		if n != nil {
			out[i] = n.CaptureState()
		}
	}
	return out
}

func restoreMACs(nodes []*mac.Node, states []*mac.NodeState) error {
	if len(states) != len(nodes) {
		return fmt.Errorf("snapshot: %d MAC states for %d nodes", len(states), len(nodes))
	}
	for i, n := range nodes {
		if n == nil {
			continue
		}
		if err := n.RestoreState(states[i]); err != nil {
			return err
		}
	}
	return nil
}

// Take captures a complete scenario at the current slot: the simulated
// network, every MAC node and, through the stack-table row for
// meta.Protocol, every node's protocol stack. The node count, AP count
// and slot are filled in from nw.
func Take(meta Meta, nw *sim.Network, net *mac.Network) (*Snapshot, error) {
	row, err := stackFor(meta.Protocol)
	if err != nil {
		return nil, err
	}
	netSt, err := nw.CaptureState()
	if err != nil {
		return nil, err
	}
	meta.Nodes = nw.Topology().N()
	meta.NumAPs = nw.Topology().NumAPs
	meta.Slot = nw.ASN()
	s := &Snapshot{Meta: meta, Net: netSt}
	if row.tag != "" {
		s.Stacks = make([]any, len(net.Nodes))
		for i, node := range net.Nodes {
			if node == nil {
				continue
			}
			if s.Stacks[i], err = row.capture(net.Stack(i)); err != nil {
				return nil, err
			}
		}
	}
	s.MACs = captureMACs(net.Nodes)
	return s, nil
}

// Restore overlays the snapshot onto a freshly built scenario of the same
// protocol, topology, configuration and seeds.
func (s *Snapshot) Restore(nw *sim.Network, net *mac.Network) error {
	row, err := stackFor(s.Meta.Protocol)
	if err != nil {
		return err
	}
	if s.Meta.Nodes != nw.Topology().N() {
		return fmt.Errorf("snapshot: %d nodes in snapshot, topology has %d", s.Meta.Nodes, nw.Topology().N())
	}
	if s.Net == nil {
		return fmt.Errorf("snapshot: missing network section")
	}
	if err := nw.RestoreState(s.Net); err != nil {
		return err
	}
	if err := restoreMACs(net.Nodes, s.MACs); err != nil {
		return err
	}
	if row.tag == "" {
		return nil
	}
	if len(s.Stacks) != len(net.Nodes) {
		return fmt.Errorf("%s restore: %d stack states for %d nodes", s.Meta.Protocol, len(s.Stacks), len(net.Nodes))
	}
	for i, node := range net.Nodes {
		if node == nil {
			continue
		}
		if s.Stacks[i] == nil {
			return fmt.Errorf("%s restore: missing state for node %d", s.Meta.Protocol, i)
		}
		if err := row.restore(net.Stack(i), s.Stacks[i]); err != nil {
			return err
		}
	}
	return nil
}
