package mac

import (
	"github.com/digs-net/digs/internal/invariant"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/telemetry"
	"github.com/digs-net/digs/internal/topology"
)

// RouteHook is called when a node's preferred (best) or backup (second)
// parent changes; stacks with a single parent report second as 0.
type RouteHook func(asn sim.ASN, best, second topology.NodeID)

// Stack is the per-node contract every protocol stack implements: the
// Protocol a MAC node executes, plus the few routing facts the shared
// Network reads for join counts, invariant probes and route telemetry.
type Stack interface {
	Protocol
	// Joined reports whether the node's routing layer has joined (a
	// parent, a configuration, or a static route; access points always
	// have). The Network combines it with the MAC's synchronisation.
	Joined() bool
	// Parents returns the node's preferred and backup parents (0 = none).
	Parents() (best, second topology.NodeID)
	// Neighbors is the neighbour count reported to the invariant monitor.
	Neighbors() int
	// SetRouteHook installs (nil removes) the parent-change callback.
	// Stacks whose routes never change at runtime ignore it.
	SetRouteHook(fn RouteHook)
}

// Network bundles the per-node MAC nodes and stacks running over one
// simulated network, and implements everything that is the same for
// every stack: join counting, sink and tracer installation, the
// invariant probe, the watchdog heal and schedule reads.
type Network struct {
	Nodes  []*Node // indexed by node ID, entry 0 nil
	stacks []Stack // indexed by node ID, entry 0 nil
	nw     *sim.Network
}

// NewNetwork returns an empty bundle sized for the network's topology.
func NewNetwork(nw *sim.Network) *Network {
	n := nw.Topology().N()
	return &Network{Nodes: make([]*Node, n+1), stacks: make([]Stack, n+1), nw: nw}
}

// Attach wraps the node's stack in a MAC node and attaches it to the
// simulated network. Nodes must be attached in ascending ID order before
// the first slot.
func (n *Network) Attach(id topology.NodeID, st Stack, cfg Config) (*Node, error) {
	node := NewNode(id, n.nw.Topology().IsAP(id), st, cfg)
	if err := n.nw.Attach(node); err != nil {
		return nil, err
	}
	n.Nodes[id] = node
	n.stacks[id] = st
	return node, nil
}

// MACNode returns node i's MAC.
func (n *Network) MACNode(i int) *Node { return n.Nodes[i] }

// Stack returns node i's protocol stack.
func (n *Network) Stack(i int) Stack { return n.stacks[i] }

// JoinedCount returns how many nodes are synchronised and have joined at
// the routing layer (access points count as joined).
func (n *Network) JoinedCount() int {
	joined := 0
	for i, node := range n.Nodes {
		if node == nil {
			continue
		}
		if synced, _ := node.Synced(); synced && n.stacks[i].Joined() {
			joined++
		}
	}
	return joined
}

// OnDeliver installs the sink callback on every access point.
func (n *Network) OnDeliver(fn func(asn sim.ASN, f *sim.Frame)) {
	for _, node := range n.Nodes[1:] {
		if node.IsAP() {
			node.Sink = fn
		}
	}
}

// SetTracer installs (or, with nil, removes) a packet-lifecycle tracer on
// every node, and wires each stack's route hook so parent switches appear
// in the event stream as route-change events.
func (n *Network) SetTracer(t telemetry.Tracer) {
	for i, node := range n.Nodes {
		if node == nil {
			continue
		}
		node.SetTracer(t)
		if t == nil {
			n.stacks[i].SetRouteHook(nil)
			continue
		}
		id := topology.NodeID(i)
		n.stacks[i].SetRouteHook(func(asn sim.ASN, best, second topology.NodeID) {
			t.Record(telemetry.Event{
				ASN:   int64(asn),
				Type:  telemetry.EvRouteChange,
				Node:  id,
				Peer:  best,
				Peer2: second,
			})
		})
	}
}

// Prober is the invariant-monitor probe (an invariant.Prober): every
// node's MAC and routing state, in ascending node-ID order, consuming no
// randomness.
func (n *Network) Prober(states []invariant.NodeState) []invariant.NodeState {
	for i, node := range n.Nodes {
		if node == nil {
			continue
		}
		st := n.stacks[i]
		id := topology.NodeID(i)
		best, second := st.Parents()
		synced, _ := node.Synced()
		states = append(states, invariant.NodeState{
			ID:        id,
			IsAP:      node.IsAP(),
			Alive:     !n.nw.Failed(id),
			Synced:    synced,
			Parent:    best,
			Backup:    second,
			Queue:     node.QueueLen(),
			LastRx:    node.LastRx(),
			Neighbors: st.Neighbors(),
		})
	}
	return states
}

// Healer is the watchdog hook: a cold restart that discards the stack's
// routing state through its Resetter, so the node resyncs and rejoins
// from scratch (sink and tracer callbacks survive the reboot). A stack
// without a Resetter — the static WirelessHART schedule — keeps its
// routes and resumes them after the resync.
func (n *Network) Healer(id topology.NodeID, asn sim.ASN) {
	if int(id) < len(n.Nodes) && n.Nodes[id] != nil {
		n.Nodes[id].Reboot(asn, true)
	}
}

// Schedule reads one node's slot assignment (digs-sim's -dump-schedule).
// Calling it advances protocol timers exactly like the simulation would,
// so it is a run-ending inspection, not a peek.
func (n *Network) Schedule(id int, asn sim.ASN) Assignment {
	return n.stacks[id].Assignment(asn)
}
