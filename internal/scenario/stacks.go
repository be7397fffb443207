package scenario

import (
	"math/rand"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/flows"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/orchestra"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/whart"
)

func buildDiGS(sc *Scenario, macCfg mac.Config) error {
	p := sc.Params
	// ScaledConfig == DefaultConfig within the paper envelope; only
	// generated massive-scale deployments get re-dimensioned frames.
	cfg := core.ScaledConfig(p.Topology.NumAPs, p.Topology.N())
	if p.DiGSConfig != nil {
		cfg = *p.DiGSConfig
	}
	net, err := core.Build(sc.NW, cfg, macCfg, p.Seed)
	if err != nil {
		return err
	}
	sc.Network, sc.ConfigHash = net.Network, snapshot.HashConfig(cfg, macCfg)
	return nil
}

func buildOrchestra(sc *Scenario, macCfg mac.Config) error {
	cfg := orchestra.DefaultConfig()
	net, err := orchestra.Build(sc.NW, cfg, macCfg, sc.Params.Seed)
	if err != nil {
		return err
	}
	sc.Network, sc.ConfigHash = net.Network, snapshot.HashConfig(cfg, macCfg)
	return nil
}

func buildWHART(sc *Scenario, macCfg mac.Config) error {
	p := sc.Params
	topo := p.Topology
	// The Network Manager computes the TDMA schedule for its flow set up
	// front; a random-flows request therefore changes the build (and its
	// ConfigHash), unlike for the autonomous stacks.
	srcs := topo.SuggestedSources
	if p.Flows > 0 {
		rf, err := flows.RandomSet(topo, p.Flows, p.Period, rand.New(rand.NewSource(p.Seed)))
		if err != nil {
			return err
		}
		srcs = nil
		for _, f := range rf {
			srcs = append(srcs, f.Source)
		}
	}
	var fl []whart.Flow
	for i, src := range srcs {
		fl = append(fl, whart.Flow{
			ID: uint16(i + 1), Source: src, PeriodSlots: sim.SlotsFor(p.Period),
		})
	}
	net, err := whart.Build(sc.NW, fl, macCfg)
	if err != nil {
		return err
	}
	sc.Network, sc.ConfigHash = net.Network, snapshot.HashConfig(macCfg, fl)
	return nil
}

func buildSDN(sc *Scenario, macCfg mac.Config) error {
	cfg := controller.DefaultSDNConfig()
	net, err := controller.BuildSDN(sc.NW, cfg, macCfg)
	if err != nil {
		return err
	}
	sc.Network, sc.ConfigHash = net.Network, snapshot.HashConfig(cfg, macCfg)
	return nil
}

func buildAdaptive(sc *Scenario, macCfg mac.Config) error {
	cfg := controller.DefaultAdaptiveConfig()
	net, err := controller.BuildAdaptive(sc.NW, cfg, macCfg, sc.Params.Seed)
	if err != nil {
		return err
	}
	sc.Network, sc.ConfigHash = net.Network, snapshot.HashConfig(cfg, macCfg)
	return nil
}
