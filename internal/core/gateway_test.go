package core

import (
	"strings"
	"testing"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/topology"
)

// TestSendCommandErrorNamesTheDevice pins the error contract: callers route
// the message to operators, so it must identify the unreachable device and
// why the gateway cannot reach it.
func TestSendCommandErrorNamesTheDevice(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 7)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(net)
	err = gw.SendCommand(42, []byte{1})
	if err == nil {
		t.Fatal("SendCommand succeeded with no learned routes")
	}
	if !strings.Contains(err.Error(), "no route to device 42") {
		t.Fatalf("error does not name the device: %v", err)
	}
}

// TestBroadcastBulletinNoAPs exercises the defensive branch for a gateway
// wired onto a network without any access point.
func TestBroadcastBulletinNoAPs(t *testing.T) {
	gw := NewGateway(&Network{Network: &mac.Network{Nodes: make([]*mac.Node, 1)}})
	err := gw.BroadcastBulletin([]byte("hello"))
	if err == nil {
		t.Fatal("BroadcastBulletin succeeded without an access point")
	}
	if !strings.Contains(err.Error(), "no access point") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBroadcastBulletinDisabledSurfacesMACError checks that the MAC's
// broadcast-disabled error propagates through the gateway instead of being
// swallowed.
func TestBroadcastBulletinDisabledSurfacesMACError(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 7)
	// Default MAC config: BroadcastFrameLen == 0, broadcast disabled.
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	gw := NewGateway(net)
	if err := gw.BroadcastBulletin([]byte("x")); err == nil {
		t.Fatal("BroadcastBulletin succeeded with broadcast disabled at the MAC")
	}
}

// TestOnCommandErrorNamesTheNode pins the OnCommand error contract.
func TestOnCommandErrorNamesTheNode(t *testing.T) {
	topo := topology.TestbedA()
	nw := sim.NewNetwork(topo, 7)
	net, err := Build(nw, DefaultConfig(topo.NumAPs), mac.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	err = net.OnCommand(9999, nil)
	if err == nil {
		t.Fatal("OnCommand accepted a non-existent node")
	}
	if !strings.Contains(err.Error(), "no node 9999") {
		t.Fatalf("error does not name the node: %v", err)
	}
}
