package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
	"github.com/digs-net/digs/internal/sim"
	"github.com/digs-net/digs/internal/snapshot"
	"github.com/digs-net/digs/internal/store"
)

// service-tier: an in-process digs-server with the default configuration
// (two workers, fsynced journal, result store, warm pool) and two
// closed-loop clients. Each client repeats a triplet — cold(seed i),
// warm(seed i, longer window: the formation comes from the warm pool),
// hit(byte-identical resubmit of the cold spec) — so host drift lands on
// every class alike. An operation is one request. The spec and its cold
// and warm windows are cmd/digs-load's, which BENCH_server.json measured.
const (
	serviceClients   = 2
	serviceSetupReps = 121
	serviceTopology  = "half-testbed-a"
	serviceCold      = 10 * time.Second
	serviceWarm      = 15 * time.Second
	servicePeriod    = 2 * time.Second
	serviceProbeReps = 3
	// serviceWarmup is the client index whose seeds the set-up's warm-up
	// and the traced run's probes use, apart from the timed clients' seeds.
	serviceWarmup = 9
)

func serviceSpec(seed int64, window time.Duration) scenario.Spec {
	return scenario.Spec{
		Topology: serviceTopology, Protocol: "digs", Seed: seed,
		Period: scenario.Duration(servicePeriod), Window: scenario.Duration(window),
	}
}

// serviceSeed gives every (run, client, triplet) its own scenario seed.
func serviceSeed(runSeed int64, client, i int) int64 {
	return runSeed*1_000_000 + int64(client)*100_000 + int64(i)
}

func serviceWorkload(r *run) error {
	// Set-up: start the server and warm it with one cold request, so
	// the timed loop does not pay for lazy initialisation. Every
	// repetition of every run, whatever its seed, runs the same warm-up
	// spec on a fresh data directory, so set-up work does not vary with
	// the seed.
	var be *backend
	var setups []float64
	warmup := serviceSpec(serviceSeed(0, serviceWarmup, 0), serviceCold)
	for i := 0; i < serviceSetupReps; i++ {
		if be != nil {
			be.stop()
		}
		runtime.GC() // each repetition starts from a clean heap, as a single set-up would
		t0 := time.Now()
		var err error
		be, err = startBackend(filepath.Join(r.dir, fmt.Sprintf("server%d", i)), "")
		if err != nil {
			return err
		}
		cl := newClient(be.base, nil)
		if err = waitOK(cl, "/readyz"); err == nil {
			_, _, err = cl.run(warmup, "warmup", 0)
		}
		if err != nil {
			be.stop()
			return fmt.Errorf("service set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer be.stop()
	r.setup = time.Duration(median(setups) * float64(time.Second))

	var before, after server.Stats
	statsClient := newClient(be.base, nil)
	if err := statsClient.stats(&before); err != nil {
		return err
	}

	var mu sync.Mutex
	var cold, warm, hit latencies
	var coldQ, coldRun, coldOver, warmQ, warmRun, warmOver latencies
	var requests, warms, hits int64
	m := startMeter(meterWindow)
	deadline := time.Now().Add(r.seconds)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(be.base, r.tr)
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				seed := serviceSeed(r.seed, c, i)
				op := fmt.Sprintf("svc-%d", seed)
				coldSpec := serviceSpec(seed, serviceCold)

				t0 := time.Now()
				root := r.tr.begin("client.cold", op, 0)
				v, coldRes, err := cl.run(coldSpec, op, root)
				r.tr.end(root)
				lc := ms(time.Since(t0))
				m.add(1)
				if err == nil && (v == nil || v.WarmStart) {
					err = fmt.Errorf("service %s: cold request answered from a cache", op)
				}
				r.count(err)
				if err != nil {
					continue
				}

				t0 = time.Now()
				root = r.tr.begin("client.warm", op, 0)
				vw, _, err := cl.run(serviceSpec(seed, serviceWarm), op, root)
				r.tr.end(root)
				lw := ms(time.Since(t0))
				m.add(1)
				r.count(err)
				if err == nil {
					r.check(vw != nil && vw.WarmStart, "service %s: warm request missed the warm pool", op)
				}

				t0 = time.Now()
				root = r.tr.begin("client.hit", op, 0)
				vh, hitRes, herr := cl.run(coldSpec, op, root)
				r.tr.end(root)
				lh := ms(time.Since(t0))
				m.add(1)
				r.count(herr)
				if herr == nil {
					r.check(vh == nil && bytes.Equal(hitRes, coldRes), "service %s: resubmit was not a byte-identical cache hit", op)
				}
				if i == 0 && v != nil {
					r.addDigest("client %d cold result=%s", c, v.ResultHash)
				}

				mu.Lock()
				requests += 3
				cold.add(lc)
				coldQ.add(v.QueuedMs)
				coldRun.add(v.RunMs)
				coldOver.add(lc - v.QueuedMs - v.RunMs)
				if err == nil && vw != nil {
					warms++
					warm.add(lw)
					warmQ.add(vw.QueuedMs)
					warmRun.add(vw.RunMs)
					warmOver.add(lw - vw.QueuedMs - vw.RunMs)
				}
				if herr == nil {
					hits++
					hit.add(lh)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.endTimed(m)

	if err := statsClient.stats(&after); err != nil {
		return err
	}
	warmHits, cacheHits := after.WarmHits-before.WarmHits, after.CacheHits-before.CacheHits
	r.check(warmHits == warms, "service: %d warm hits for %d warm requests", warmHits, warms)
	r.check(cacheHits == hits, "service: %d cache hits for %d hit requests", cacheHits, hits)

	r.report("req_per_s", float64(requests)/r.wall.Seconds(), "1/s", int(requests))
	r.reportLatency("cold", &cold)
	r.reportLatency("warm", &warm)
	r.reportLatency("hit", &hit)
	if warms > 0 {
		r.setLayer("server.warm_hit_ratio", float64(warmHits)/float64(warms))
	}
	if hits > 0 {
		r.setLayer("server.cache_hit_ratio", float64(cacheHits)/float64(hits))
	}
	r.setLayer("server.cold.queued_ms", median(coldQ.ms))
	r.setLayer("server.cold.run_ms", median(coldRun.ms))
	r.setLayer("server.cold.overhead_ms", median(coldOver.ms))
	r.setLayer("server.warm.queued_ms", median(warmQ.ms))
	r.setLayer("server.warm.run_ms", median(warmRun.ms))
	r.setLayer("server.warm.overhead_ms", median(warmOver.ms))
	r.setLayer("server.hit.overhead_ms", median(hit.ms))

	if r.tr == nil {
		return nil
	}
	if err := serviceProbes(r); err != nil {
		return err
	}
	return gatewayProbe(r)
}

// serviceProbes times, outside the server and after the timed loop, the
// layers a cold or warm request passes through: RunSpec itself, the
// formation snapshot's take/encode/decode/restore, and an fsynced store
// write of a result.
func serviceProbes(r *run) error {
	var runspec, take, enc, dec, restore, write latencies
	var size int
	for i := 0; i < serviceProbeReps; i++ {
		seed := serviceSeed(r.seed, serviceWarmup, i+1)
		spec := serviceSpec(seed, serviceCold)
		op := fmt.Sprintf("probe-%d", seed)

		t0 := time.Now()
		var res *scenario.Result
		var err error
		r.tr.do("scenario.RunSpec", op, 0, func(int) {
			res, _, err = scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
		})
		if err != nil {
			return err
		}
		runspec.add(ms(time.Since(t0)))

		// The formation snapshot a warm request restores.
		p := spec.Canonical().Params()
		sc, err := scenario.Build(p)
		if err != nil {
			return err
		}
		n := sc.Params.Topology.N()
		target := int(math.Ceil(spec.Canonical().JoinFraction * float64(n)))
		if _, ok := sc.NW.RunUntil(sim.SlotsFor(6*time.Minute), func() bool { return sc.Joined() >= target }); !ok {
			return fmt.Errorf("service probe %s did not form", op)
		}
		var snap *snapshot.Snapshot
		var blob []byte
		timed := func(l *latencies, name string, fn func() error) {
			if err != nil {
				return
			}
			t := time.Now()
			r.tr.do(name, op, 0, func(int) { err = fn() })
			l.add(ms(time.Since(t)))
		}
		timed(&take, "scenario.Scenario.Take", func() (e error) { snap, e = sc.Take("bench", nil); return })
		timed(&enc, "snapshot.Encode", func() (e error) { blob, e = snapshot.Encode(snap); return })
		timed(&dec, "snapshot.Decode", func() (e error) { snap, e = snapshot.Decode(blob); return })
		fresh, berr := scenario.Build(p)
		if berr != nil {
			return berr
		}
		timed(&restore, "scenario.Scenario.Restore", func() error { return fresh.Restore(snap) })
		if err != nil {
			return err
		}
		size = len(blob)
		r.check(fresh.NW.ASN() == sc.NW.ASN(), "snapshot restore landed at slot %d, taken at %d", fresh.NW.ASN(), sc.NW.ASN())

		b, err := res.Encode()
		if err != nil {
			return err
		}
		for j := 0; j < 5; j++ {
			path := filepath.Join(r.dir, "probe-results", fmt.Sprintf("%d-%d.json", i, j))
			timed(&write, "store.WriteFileAtomic", func() error { return store.WriteFileAtomic(path, b) })
		}
		if err != nil {
			return err
		}
	}
	r.setLayer("scenario.runspec_cold_ms", median(runspec.ms))
	r.setLayer("snapshot.take_ms", median(take.ms))
	r.setLayer("snapshot.encode_ms", median(enc.ms))
	r.setLayer("snapshot.decode_ms", median(dec.ms))
	r.setLayer("snapshot.restore_ms", median(restore.ms))
	r.setLayer("snapshot.bytes", float64(size))
	r.setLayer("store.write_ms", median(write.ms))
	return nil
}
