package core

import (
	"fmt"
	"math/rand"

	"github.com/digs-net/digs/internal/detrand"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Network bundles the per-node MAC and DiGS instances running over one
// simulated network. The embedded mac.Network provides the stack-neutral
// surface (join count, sinks, tracer, invariant probe, heal).
type Network struct {
	*mac.Network
	Stacks []*Stack // indexed by node ID, entry 0 nil
}

// Build attaches a full DiGS stack to every node of the network's
// topology. Sink callbacks can then be installed on the AP nodes.
func Build(nw *sim.Network, cfg Config, macCfg mac.Config, seed int64) (*Network, error) {
	topo := nw.Topology()
	if cfg.NumAPs != topo.NumAPs {
		return nil, fmt.Errorf("digs build: config NumAPs %d != topology NumAPs %d",
			cfg.NumAPs, topo.NumAPs)
	}
	out := &Network{Network: mac.NewNetwork(nw), Stacks: make([]*Stack, topo.N()+1)}
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		// A counting source (same value stream as rand.NewSource) keeps
		// the stack's RNG position checkpointable for snapshots.
		src := detrand.New(seed*7919 + int64(i))
		stack, err := NewStack(id, topo.IsAP(id), cfg, rand.New(src))
		if err != nil {
			return nil, err
		}
		stack.rngSrc = src
		if _, err := out.Attach(id, stack, macCfg); err != nil {
			return nil, fmt.Errorf("digs build: %w", err)
		}
		out.Stacks[i] = stack
	}
	return out, nil
}
