package controller

import (
	"fmt"
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// SDNNetwork bundles the per-node MAC and SDN stack instances running over
// one simulated network, on the stack-neutral mac.Network surface.
type SDNNetwork struct {
	*mac.Network
	Stacks []*SDNStack // indexed by node ID, entry 0 nil
}

// BuildSDN attaches an SDN stack to every node of the network's topology.
// The lowest-ID access point runs the controller role; the others are
// plain switches that report links up and accept configurations down.
func BuildSDN(nw *sim.Network, cfg SDNConfig, macCfg mac.Config) (*SDNNetwork, error) {
	topo := nw.Topology()
	aps := topo.APs()
	if len(aps) == 0 {
		return nil, fmt.Errorf("sdn build: topology has no access points")
	}
	controllerID := aps[0]
	for _, ap := range aps {
		if ap < controllerID {
			controllerID = ap
		}
	}
	out := &SDNNetwork{Network: mac.NewNetwork(nw), Stacks: make([]*SDNStack, topo.N()+1)}
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		stack, err := NewSDNStack(id, topo.IsAP(id), controllerID, topo.N(), aps, cfg)
		if err != nil {
			return nil, err
		}
		if _, err := out.Attach(id, stack, macCfg); err != nil {
			return nil, fmt.Errorf("sdn build: %w", err)
		}
		out.Stacks[i] = stack
	}
	return out, nil
}

// AdaptiveNetwork bundles the per-node MAC and adaptive-allocator stacks
// running over one simulated network, on the stack-neutral mac.Network
// surface.
type AdaptiveNetwork struct {
	*mac.Network
	Stacks []*AdaptiveStack // indexed by node ID, entry 0 nil
}

// BuildAdaptive attaches an adaptive stack to every node of the network's
// topology (access points act as RPL roots).
func BuildAdaptive(nw *sim.Network, cfg AdaptiveConfig, macCfg mac.Config, seed int64) (*AdaptiveNetwork, error) {
	topo := nw.Topology()
	out := &AdaptiveNetwork{Network: mac.NewNetwork(nw), Stacks: make([]*AdaptiveStack, topo.N()+1)}
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		// A counting source (same value stream as rand.NewSource) keeps
		// the stack's RNG position checkpointable for snapshots. The
		// multiplier differs from Orchestra's so the two RPL-based stacks
		// do not share random streams at equal seeds.
		src := detrand.New(seed*7877 + int64(i))
		stack, err := NewAdaptiveStack(id, topo.IsAP(id), cfg, rand.New(src))
		if err != nil {
			return nil, err
		}
		stack.rngSrc = src
		node, err := out.Attach(id, stack, macCfg)
		if err != nil {
			return nil, fmt.Errorf("adaptive build: %w", err)
		}
		// The allocator samples its own node's queue depth at adaptation
		// ticks; reading our own queue from our own Assignment keeps the
		// sharded engine's no-cross-node-state rule intact.
		stack.queueLen = node.QueueLen
		out.Stacks[i] = stack
	}
	return out, nil
}
