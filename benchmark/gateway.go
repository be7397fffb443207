package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/digs-net/digs/internal/gateway"
	"github.com/digs-net/digs/internal/scenario"
)

// The gateway tier: digs-gateway at its default R=2 in front of two
// in-process digs-server backends, read by two closed-loop clients.
const (
	gatewayClients  = 2
	gatewayBackends = 2
	gatewaySpecs    = 8
	gatewayWindow   = 10 * time.Second
)

type tier struct {
	backends []*backend
	gw       *gateway.Gateway
	base     string
	stopHTTP func()
}

func (t *tier) stop() {
	t.stopHTTP()
	t.gw.Close()
	for _, b := range t.backends {
		b.stop()
	}
}

func startTier(dir string) (*tier, error) {
	t := &tier{}
	var urls []string
	for i := 0; i < gatewayBackends; i++ {
		b, err := startBackend(filepath.Join(dir, fmt.Sprintf("backend%d", i)), fmt.Sprintf("b%d", i))
		if err != nil {
			for _, b := range t.backends {
				b.stop()
			}
			return nil, err
		}
		t.backends = append(t.backends, b)
		urls = append(urls, b.base)
	}
	gw, err := gateway.New(gateway.Config{Backends: urls})
	if err == nil {
		t.gw = gw
		t.base, t.stopHTTP, err = serve(gw.Handler())
		if err != nil {
			gw.Close()
		}
	}
	if err != nil {
		for _, b := range t.backends {
			b.stop()
		}
		return nil, err
	}
	if err := waitOK(newClient(t.base, nil), "/readyz"); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// stored is one pre-populated result.
type stored struct {
	spec       scenario.Spec
	hash       string // spec hash
	resultHash string
	result     []byte
}

// gatewayProbe measures the gateway layer in service-tier's traced run:
// a fresh tier stores results for a set of specs on both replicas, then
// two closed-loop clients alternate a byte-identical resubmit (a cache
// hit) and GET /v1/results/{hash}, first through the gateway and then
// straight to one backend. The hop is the difference of the hit medians.
func gatewayProbe(r *run) error {
	t, err := startTier(filepath.Join(r.dir, "tier"))
	if err != nil {
		return err
	}
	defer t.stop()
	specs, err := populate(t, r.seed)
	if err != nil {
		return err
	}
	d := r.seconds / 4
	gc := newClient(t.base, nil)
	var before, after gateway.Stats
	if err := gc.stats(&before); err != nil {
		return err
	}
	hit, get, hitsDone, reqs := gatewayPhase(r, t.base, specs, d, r.tr)
	if err := gc.stats(&after); err != nil {
		return err
	}
	r.check(after.CacheHits-before.CacheHits == hitsDone, "gateway: %d cache hits for %d resubmits",
		after.CacheHits-before.CacheHits, hitsDone)
	r.report("gateway_req_per_s", float64(reqs)/d.Seconds(), "1/s", int(reqs))
	hs := r.reportLatency("gateway_hit", hit)
	r.reportLatency("gateway_get", get)
	direct, _, _, _ := gatewayPhase(r, t.backends[0].base, specs, d, nil)
	ds := r.reportLatency("direct_hit", direct)

	r.setLayer("gateway.hop_ms", hs.P50-ds.P50)
	if gets := len(get.ms); gets > 0 {
		r.setLayer("gateway.hedge_ratio", float64(after.HedgedReads-before.HedgedReads)/float64(gets))
	}
	r.setLayer("gateway.failovers", float64(after.Failovers-before.Failovers))
	r.setLayer("gateway.resubmits", float64(after.Resubmits-before.Resubmits))
	r.setLayer("gateway.repairs", float64(after.ReadRepairs-before.ReadRepairs))
	return nil
}

// populate runs every spec through the gateway, then waits until both
// replicas hold its result, so the timed phase reads settled state.
func populate(t *tier, seed int64) ([]stored, error) {
	gc := newClient(t.base, nil)
	var specs []stored
	for i := 0; i < gatewaySpecs; i++ {
		spec := serviceSpec(seed*1000+int64(i), gatewayWindow)
		v, res, err := gc.run(spec, fmt.Sprintf("populate-%d", i), 0)
		if err != nil {
			return nil, fmt.Errorf("gateway populate: %w", err)
		}
		if v == nil {
			return nil, fmt.Errorf("gateway populate: spec %d was already cached", i)
		}
		specs = append(specs, stored{spec: spec, hash: v.SpecHash, resultHash: v.ResultHash, result: res})
	}
	for _, b := range t.backends {
		bc := newClient(b.base, nil)
		for _, s := range specs {
			if err := waitOK(bc, "/v1/results/"+s.hash); err != nil {
				return nil, fmt.Errorf("gateway populate: replica never stored %s: %w", s.hash, err)
			}
		}
	}
	return specs, nil
}

// gatewayPhase runs the closed-loop read mix against base for d and
// returns the per-class latencies, the resubmit count and the request
// count.
func gatewayPhase(r *run, base string, specs []stored, d time.Duration, tr *tracer) (hit, get *latencies, hits, reqs int64) {
	hit, get = &latencies{}, &latencies{}
	var mu sync.Mutex
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < gatewayClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base, tr)
			rng := rand.New(rand.NewSource(r.seed*10 + int64(c)))
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				s := specs[rng.Intn(len(specs))]
				op := fmt.Sprintf("read-%d-%d", c, i)
				t0 := time.Now()
				var err error
				if i%2 == 0 {
					root := tr.begin("client.hit", op, 0)
					var sub *submitted
					sub, err = cl.submit(s.spec, op, root)
					tr.end(root)
					if err == nil && (sub.code != http.StatusOK || !bytes.Equal(sub.Result, s.result)) {
						err = fmt.Errorf("gateway %s: resubmit of %s was not a byte-identical cache hit (HTTP %d)", op, s.hash, sub.code)
					}
				} else {
					root := tr.begin("client.get", op, 0)
					var code int
					var body []byte
					code, body, err = cl.get("/v1/results/"+s.hash, "http.GET /v1/results/{hash}", op, root)
					tr.end(root)
					if err == nil && (code != http.StatusOK || !bytes.Equal(bytes.TrimSpace(body), s.result)) {
						err = fmt.Errorf("gateway %s: GET result %s: HTTP %d or bytes differ", op, s.hash, code)
					}
					if err == nil {
						err = verifyResult(bytes.TrimSpace(body), s.resultHash)
					}
				}
				lat := ms(time.Since(t0))
				r.count(err)
				mu.Lock()
				reqs++
				if err == nil {
					if i%2 == 0 {
						hits++
						hit.add(lat)
					} else {
						get.add(lat)
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return hit, get, hits, reqs
}
