package snapshot

import (
	"fmt"

	"github.com/digs-net/digs/internal/controller"
	"github.com/digs-net/digs/internal/core"
	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/orchestra"
)

// stackRow is one protocol's entry in the stack-state table: the section
// tag its per-node state travels under, the wire codec for one node's
// state, capture/restore through the node's live stack, and the routing
// fact Summary counts. A row without a tag is a stack with no state of its
// own beyond the MAC nodes.
type stackRow struct {
	tag      string
	encode   func(w *writer, st any) error
	decode   func(r *reader) any
	capture  func(s mac.Stack) (any, error)
	restore  func(s mac.Stack, st any) error
	parented func(st any) bool
}

// stackTable maps Meta.Protocol to its row. Everything in this package
// that depends on the protocol reads it from here, so adding a stack with
// state is one line plus the field codec for its state struct.
var stackTable = map[string]stackRow{
	ProtocolDiGS: rowOf[*core.Stack](secDiGS, encodeDiGSStack, decodeDiGSStack,
		func(st *core.StackState) bool { return st.Router.HasParentedAt }),
	ProtocolOrchestra: rowOf[*orchestra.Stack](secOrch, encodeOrchStack, decodeOrchStack,
		func(st *orchestra.StackState) bool { return st.Router.HasParentedAt }),
	ProtocolWHART: {},
	// An sdn node keeps no join history, only its configured parent.
	ProtocolSDN: rowOf[*controller.SDNStack](secSDN, encodeSDNStack, decodeSDNStack,
		func(st *controller.SDNStackState) bool { return st.Parent != 0 }),
	ProtocolAdaptive: rowOf[*controller.AdaptiveStack](secAdaptive, encodeAdaptiveStack, decodeAdaptiveStack,
		func(st *controller.AdaptiveStackState) bool { return st.Router.HasParentedAt }),
}

// stackByTag maps each stack section tag back to its row, for decoding
// before the metadata has named the protocol.
var stackByTag = func() map[string]stackRow {
	m := make(map[string]stackRow, len(stackTable))
	for _, r := range stackTable {
		if r.tag != "" {
			m[r.tag] = r
		}
	}
	return m
}()

// rowOf builds a table entry for a stack type S whose per-node state is *T.
func rowOf[S interface {
	CaptureState() (*T, error)
	RestoreState(*T) error
}, T any](tag string, enc func(*writer, *T), dec func(*reader) *T, parented func(*T) bool) stackRow {
	return stackRow{
		tag: tag,
		encode: func(w *writer, v any) error {
			st, ok := v.(*T)
			if !ok || st == nil {
				return fmt.Errorf("snapshot: %s section holds a %T", tag, v)
			}
			enc(w, st)
			return nil
		},
		decode: func(r *reader) any { return dec(r) },
		capture: func(s mac.Stack) (any, error) {
			live, ok := s.(S)
			if !ok {
				return nil, fmt.Errorf("snapshot: %s section cannot capture a %T", tag, s)
			}
			st, err := live.CaptureState()
			if err != nil {
				return nil, err
			}
			return st, nil
		},
		restore: func(s mac.Stack, v any) error {
			live, ok := s.(S)
			st, ok2 := v.(*T)
			if !ok || !ok2 {
				return fmt.Errorf("snapshot: %s section cannot restore a %T into a %T", tag, v, s)
			}
			return live.RestoreState(st)
		},
		parented: func(v any) bool {
			st, ok := v.(*T)
			return ok && st != nil && parented(st)
		},
	}
}

// stackFor returns the table row for a protocol name.
func stackFor(protocol string) (stackRow, error) {
	r, ok := stackTable[protocol]
	if !ok {
		return stackRow{}, fmt.Errorf("snapshot: unknown protocol %q", protocol)
	}
	return r, nil
}

// stackTag names a protocol's stack section in diff output ("stacks" for
// a protocol without one).
func stackTag(protocol string) string {
	if t := stackTable[protocol].tag; t != "" {
		return t
	}
	return "stacks"
}

func encodeStacks(w *writer, r stackRow, stacks []any) error {
	w.uvarint(uint64(len(stacks)))
	for _, st := range stacks {
		w.boolean(st != nil)
		if st != nil {
			if err := r.encode(w, st); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeStacks(rd *reader, r stackRow) []any {
	n := rd.count(1)
	out := make([]any, n)
	for i := range out {
		if rd.boolean() {
			out[i] = r.decode(rd)
		}
		if rd.err != nil {
			return nil
		}
	}
	return out
}
