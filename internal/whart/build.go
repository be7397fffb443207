package whart

import (
	"fmt"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// Network bundles the per-node MAC and static WirelessHART stacks running
// over one simulated network, executing one centrally computed schedule.
type Network struct {
	*mac.Network
	Routes *Routes
}

// Build computes graph routes and a TDMA superframe for the given flows
// and attaches a static stack to every node. This is the executable form
// of the WirelessHART baseline: the network runs exactly what the manager
// computed, with no adaptation.
func Build(nw *sim.Network, fl []Flow, macCfg mac.Config) (*Network, error) {
	topo := nw.Topology()
	routes, err := ComputeGraphRoutes(topo)
	if err != nil {
		return nil, err
	}
	sf, err := ComputeSchedule(topo, routes, fl)
	if err != nil {
		return nil, err
	}
	out := &Network{Network: mac.NewNetwork(nw), Routes: routes}
	for i := 1; i <= topo.N(); i++ {
		id := topology.NodeID(i)
		stack, err := NewStack(id, topo.IsAP(id), routes, sf)
		if err != nil {
			return nil, err
		}
		if _, err := out.Attach(id, stack, macCfg); err != nil {
			return nil, fmt.Errorf("whart build: %w", err)
		}
	}
	return out, nil
}
