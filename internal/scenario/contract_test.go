package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/mac"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/telemetry"
)

// TestStackContractGolden pins what every registered stack produces
// through the scenario surface, on both halves of the paper's Testbed A:
// the canonical RunSpec result under the fig8 fault plan with the
// invariant monitor on, the JSONL telemetry stream of that run (route
// changes, violations and repairs come from SetTracer, Prober and Healer)
// and the encoded snapshot of a fresh build stepped for 3,000 slots. A
// change to how stacks are built or wired that alters any of the three
// shows up here as a drifted hash.
func TestStackContractGolden(t *testing.T) {
	golden := map[string][3]string{
		// stack/topology: result, telemetry, snapshot
		"adaptive/half-testbed-a": {
			"d2734c5332cd5c0087ddc9bcf19ef72981a99de8838f836db35afb15b3b37c29",
			"a67bb79fb2409c262f5b1baccbd13f62e3510a64c795591cf92044f218379c02",
			"50bd5c0a1bc1b0920ec4bd06401fbeb578748cc1abe1bdd87f87ee680630760c"},
		"adaptive/testbed-a": {
			"9a9796c1becf5fc0bc72e8137dbebf3c6e989b03e305933bca637b5cfd8c8c38",
			"bda5afaf51f5d8e64ebdc4006dde746852879e8529ef2215e56d16dfa6873902",
			"416c4172adb6665d1a84942da185c49667ec9a99b3b3686722ddc5927382ca06"},
		"digs/half-testbed-a": {
			"ee95d57b364b8a04dad28aa7cdb78ea846bdb43311031f8bd61ceefc368cbc6f",
			"275f49b8e3f27b61a4294f6bab02a8e9d921528ab5a4807d76c5cf107fcb9853",
			"2aee2e636399a86cabf28d604e21c3e5a8b64749511dd7e9cf2b7df507d4d182"},
		"digs/testbed-a": {
			"38f0b3bfb2d2ad2e6c51b8c764dabf77ebb39c9a7ca6aeb26f66e66a2abfb0da",
			"16067d92b3b08627de9798dc08bfa559988391408747477e2b25a2283d6a6430",
			"25b9fc7c62a527d52d89686938d112fe5a06027933a791a7b411a4242cb0f9ba"},
		"orchestra/half-testbed-a": {
			"7cedc501f2b1536f72e96127d68cd594b77979a470a924dbd2ed413e71845205",
			"7434dc9882b2f8fd0606364c89c0870a2352df7b8c00620f015ef31e2fd35a21",
			"f1203ed86d2a4e1bb06043712dfdd10fa017159a68d517479771dcc849f436db"},
		"orchestra/testbed-a": {
			"9f7a4a4e74705823f5eb5a7d007c01e81662fbc8bdd0f86a75324072bb528ca1",
			"8b8dbcbe7adf6ec9f9ad0a8a8ff70252a4c64a6240dc25ed62a4afc0bd4155ac",
			"f6388df685097baaa13dde078485d730b8d64f88338b57f7edc532943604c45f"},
		"sdn/half-testbed-a": {
			"bb4c55bc83f7d69638ea7c24fe66e6bbfb2b7da51d32752f7cfb3c70ac8c32e5",
			"8db5ff5ba4cb19ab78c030334c8d162bc37a50783c9f76c6c3e644ffdb578847",
			"5bc68d6d30f5627987c37fd172e244c3f1f191a579b9537ebc3459b4ee641847"},
		"sdn/testbed-a": {
			"22d092386f611fae9cdbdc72e4a53d13b8869889d9a0bb53c322799cfb59d23e",
			"8ca13aaad51d94c591ac1413c24c9f427da7e6fc2a90a6640086c557d9cff1a3",
			"b97bf05af9722d49cf0783bb08036fa9cc6617b404bb14f687b3451d28b0e10c"},
		"whart/half-testbed-a": {
			"b0ce967f38666af4b7ad6570a4baafc841bc0960de2a54abf95552d283d18d2e",
			"4a173d4f5ca0141ee8b06e3701ec4852b7843184d6449b2acf99bbbdc0adc5c3",
			"128e3a2fcacf7280bcc15030d5ad0e31c7a06ee233a5b36540499949860392cd"},
		"whart/testbed-a": {
			"c50243f4705e848ea751655b0cbe6770d84b130af939fe0060fe6ebbdd2b3c25",
			"30bbc5da5abc8e9d955e0b74f53a2fd336a6f4de8774bb9872e6a5406842d24f",
			"dfd212c47561f0951323d8db712981b6f9e579e64c1b2a75db198b7452c01ce1"},
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, stack := range RegisteredStacks() {
		for _, topo := range []string{"half-testbed-a", "testbed-a"} {
			name := stack + "/" + topo
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				spec := Spec{Topology: topo, Protocol: stack, Seed: 1, Invariants: true,
					PlanName: "fig8", Window: Duration(30 * time.Second)}
				var trace bytes.Buffer
				res, _, err := RunSpec(context.Background(), spec, RunOpts{Tracer: telemetry.NewJSONL(&trace)})
				if err != nil {
					t.Fatal(err)
				}
				enc, err := res.Encode()
				if err != nil {
					t.Fatal(err)
				}

				sc, err := Build(spec.Canonical().Params())
				if err != nil {
					t.Fatal(err)
				}
				sc.NW.Run(3000)
				snap, err := sc.Take("golden", nil)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := snapshot.Encode(snap)
				if err != nil {
					t.Fatal(err)
				}

				got := [3]string{sum(enc), sum(trace.Bytes()), sum(raw)}
				if got != golden[name] {
					t.Errorf("%s drifted (violations %d, repairs %d):\n got  %q\n want %q",
						name, res.Violations, res.Repairs, got, golden[name])
				}
			})
		}
	}
}

// TestScheduleReadEveryStack checks the schedule read every stack serves
// through the shared bundle (digs-sim -dump-schedule): after formation, an
// access point's next 600 slots hold at least one non-sleep role.
func TestScheduleReadEveryStack(t *testing.T) {
	for _, stack := range RegisteredStacks() {
		t.Run(stack, func(t *testing.T) {
			t.Parallel()
			sc, err := Build(Params{TopologyName: testTopo, Protocol: stack, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := form(sc); err != nil {
				t.Fatal(err)
			}
			ap := int(sc.Params.Topology.APs()[0])
			base := sc.NW.ASN()
			active := 0
			for asn := base; asn < base+600; asn++ {
				if sc.Schedule(ap, asn).Role != mac.RoleSleep {
					active++
				}
			}
			if active == 0 {
				t.Errorf("access point %d sleeps through all 600 slots from ASN %d", ap, base)
			}
		})
	}
}
