package scenario

import (
	"sort"
	"strings"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/snapshot"
)

// StackBuilder attaches one protocol stack to every node of the scenario's
// freshly built network (sc.NW, from the resolved sc.Params: Topology
// non-nil, Period filled) with the MAC configuration Build computed. It
// sets the scenario's mac.Network — the bundle over each node's mac.Stack,
// the per-node contract every stack implements — and the ConfigHash.
// Snapshots reach each node's state through that bundle and the stack
// table in internal/snapshot, so a builder has nothing else to set.
type StackBuilder func(sc *Scenario, macCfg mac.Config) error

// stackTable is the fixed set of protocol stacks, keyed by -protocol
// name. Every CLI and the scenario spec validate against it, so adding a
// stack is one per-node type implementing mac.Stack, one builder, one
// entry here and one row in the snapshot package's stack table.
var stackTable = map[string]StackBuilder{
	snapshot.ProtocolDiGS:      buildDiGS,
	snapshot.ProtocolOrchestra: buildOrchestra,
	snapshot.ProtocolWHART:     buildWHART,
	snapshot.ProtocolSDN:       buildSDN,
	snapshot.ProtocolAdaptive:  buildAdaptive,
}

// StackRegistered reports whether a protocol name has a registered stack.
func StackRegistered(name string) bool {
	_, ok := stackTable[name]
	return ok
}

// RegisteredStacks lists the registered protocol names, sorted.
func RegisteredStacks() []string {
	names := make([]string, 0, len(stackTable))
	for name := range stackTable {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StackNames is the comma-joined registry contents, for flag help text and
// rejection messages.
func StackNames() string {
	return strings.Join(RegisteredStacks(), ", ")
}
