package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/digs-net/digs/internal/scenario"
)

// smallSpec is a fast scenario (~tens of ms): 20 nodes, 10 s window.
func smallSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Topology: "half-testbed-a", Protocol: "digs", Seed: seed,
		Period: scenario.Duration(2 * time.Second),
		Window: scenario.Duration(10 * time.Second),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx) // second Shutdown in a test that drained itself is a harmless error
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec scenario.Spec, tenant string) (int, map[string]json.RawMessage) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/scenarios", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-DiGS-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding %d response: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, doc
}

func str(t *testing.T, doc map[string]json.RawMessage, key string) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(doc[key], &s); err != nil {
		t.Fatalf("field %q: %v (doc: %v)", key, err, doc)
	}
	return s
}

func waitDone(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	j := s.job(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (status %s)", id, j.Status())
	}
	return j
}

// streamSSE consumes the job's SSE stream to the final "done" event,
// returning the data lines (the telemetry JSONL) and the done payload.
func streamSSE(t *testing.T, ts *httptest.Server, id string) (lines []string, done string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := "message"
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "done" {
				return lines, data
			}
			if event == "message" {
				lines = append(lines, data)
			}
		case line == "":
			event = "message"
		}
	}
	t.Fatalf("stream ended without a done event (%v)", sc.Err())
	return nil, ""
}

// TestSubmitStreamResult is the end-to-end happy path the issue names:
// submit over HTTP, follow the SSE stream to completion, fetch the
// content-addressed result.
func TestSubmitStreamResult(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	code, doc := submit(t, ts, smallSpec(5), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, doc)
	}
	id := str(t, doc, "job_id")
	specHash := str(t, doc, "spec_hash")

	lines, doneData := streamSSE(t, ts, id)
	if len(lines) == 0 {
		t.Fatal("SSE stream carried no telemetry")
	}
	var schema struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &schema); err != nil || schema.Schema == "" {
		t.Fatalf("first stream line is not the JSONL schema header: %q", lines[0])
	}
	var view View
	if err := json.Unmarshal([]byte(doneData), &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusDone || view.ResultHash == "" || len(view.Result) == 0 {
		t.Fatalf("done view: %+v", view)
	}

	// The job result endpoint serves the canonical bytes with the hash.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-DiGS-Result-Hash"); got != view.ResultHash {
		t.Fatalf("result hash header %q != done view %q", got, view.ResultHash)
	}

	// And the content-addressed store serves the same bytes by spec hash.
	resp2, err := http.Get(ts.URL + "/v1/results/" + specHash)
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("stored result: %d", resp2.StatusCode)
	}
	if !bytes.Equal(bytes.TrimSpace(body), bytes.TrimSpace(body2)) {
		t.Fatalf("job result and stored result differ:\n%s\n%s", body, body2)
	}
	waitDone(t, s, id)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDuplicateSubmissionServedFromCache: an identical resubmission is a
// content-addressed cache hit — 200 with the stored result, no new job.
func TestDuplicateSubmissionServedFromCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	code, doc := submit(t, ts, smallSpec(7), "")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	j := waitDone(t, s, str(t, doc, "job_id"))
	want, _ := j.Result()

	// Same scenario spelled differently (explicit defaults, shards knob).
	dup := smallSpec(7)
	dup.MacBoost = 1
	dup.JoinFraction = 1.0
	dup.Shards = 4
	code, doc = submit(t, ts, dup, "")
	if code != http.StatusOK {
		t.Fatalf("duplicate submit: %d (%v)", code, doc)
	}
	var cached bool
	if err := json.Unmarshal(doc["cached"], &cached); err != nil || !cached {
		t.Fatalf("duplicate not served from cache: %v", doc)
	}
	if !bytes.Equal(bytes.TrimSpace(doc["result"]), bytes.TrimSpace(want)) {
		t.Fatalf("cached result differs:\n%s\n%s", doc["result"], want)
	}
	if got := s.cacheHits.Load(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
}

// TestInFlightDedup: two identical submissions while the first is still
// queued collapse onto one job.
func TestInFlightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: WorkersNone})
	code, doc := submit(t, ts, smallSpec(9), "")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	id := str(t, doc, "job_id")
	code, doc = submit(t, ts, smallSpec(9), "")
	if code != http.StatusAccepted {
		t.Fatalf("dup submit: %d", code)
	}
	if got := str(t, doc, "job_id"); got != id {
		t.Fatalf("dedup returned a new job %s (want %s)", got, id)
	}
	var dedup bool
	if err := json.Unmarshal(doc["dedup"], &dedup); err != nil || !dedup {
		t.Fatalf("second submission not marked dedup: %v", doc)
	}
	if got := s.dedupHits.Load(); got != 1 {
		t.Fatalf("dedup hits = %d", got)
	}
}

// TestTenantQuota429: a tenant at its quota is pushed back with 429 and
// Retry-After; other tenants are unaffected.
func TestTenantQuota429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: WorkersNone, TenantQuota: 2, QueueDepth: 16})
	for i := int64(0); i < 2; i++ {
		if code, doc := submit(t, ts, smallSpec(100+i), "alice"); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%v)", i, code, doc)
		}
	}
	body, _ := json.Marshal(smallSpec(102))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/scenarios", bytes.NewReader(body))
	req.Header.Set("X-DiGS-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A different tenant still gets in.
	if code, _ := submit(t, ts, smallSpec(103), "bob"); code != http.StatusAccepted {
		t.Fatalf("other tenant: %d", code)
	}
}

// TestQueueFull429: a full job queue is backpressure, not an error page.
func TestQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: WorkersNone, QueueDepth: 1})
	if code, _ := submit(t, ts, smallSpec(200), ""); code != http.StatusAccepted {
		t.Fatal("first submit should fill the queue")
	}
	body, _ := json.Marshal(smallSpec(201))
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestBadSubmissions: malformed and oversized requests are rejected at
// admission with precise status codes.
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: WorkersNone, MaxNodes: 500})
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", code)
	}
	if code := post(`{"topology":"half-testbed-a","bogus_field":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d", code)
	}
	if code := post(`{"protocol":"tcp"}`); code != http.StatusBadRequest {
		t.Errorf("bad protocol: %d", code)
	}
	if code := post(`{"topology":"gen-plant-1000-1"}`); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over MaxNodes: %d", code)
	}
}

// TestServerMatchesDirectRun: the determinism contract — a server-run
// scenario is bit-identical to running the same spec directly.
func TestServerMatchesDirectRun(t *testing.T) {
	spec := smallSpec(5)
	direct, _, err := scenario.RunSpec(context.Background(), spec, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Encode()
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Workers: 1})
	_, doc := submit(t, ts, spec, "")
	j := waitDone(t, s, str(t, doc, "job_id"))
	got, _ := j.Result()
	if !bytes.Equal(got, want) {
		t.Fatalf("server result differs from direct run:\nserver: %s\ndirect: %s", got, want)
	}
}

// TestWarmPoolAcrossWindows: a second scenario sharing the formation
// phase (same deployment/protocol/seed, longer window) warm-starts from
// the pool and still matches a direct cold run bit for bit.
func TestWarmPoolAcrossWindows(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, doc := submit(t, ts, smallSpec(5), "")
	waitDone(t, s, str(t, doc, "job_id"))
	if s.warmHits.Load() != 0 {
		t.Fatal("first run cannot be a warm hit")
	}

	longer := smallSpec(5)
	longer.Window = scenario.Duration(15 * time.Second)
	_, doc = submit(t, ts, longer, "")
	j := waitDone(t, s, str(t, doc, "job_id"))
	if s.warmHits.Load() != 1 {
		t.Fatalf("warm hits = %d, want 1", s.warmHits.Load())
	}
	got, _ := j.Result()

	direct, _, err := scenario.RunSpec(context.Background(), longer, scenario.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm-started server result differs from direct cold run:\nserver: %s\ndirect: %s", got, want)
	}
}

// TestShutdownCancelsQueued: draining cancels jobs the workers never
// picked up and refuses new submissions with 503.
func TestShutdownCancelsQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: WorkersNone, QueueDepth: 8})
	var ids []string
	for i := int64(0); i < 3; i++ {
		_, doc := submit(t, ts, smallSpec(300+i), "")
		ids = append(ids, str(t, doc, "job_id"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain with no in-flight jobs should not hit the deadline: %v", err)
	}
	for _, id := range ids {
		j := waitDone(t, s, id)
		if j.Status() != StatusCanceled {
			t.Errorf("job %s: %s, want canceled", id, j.Status())
		}
	}
	body, _ := json.Marshal(smallSpec(999))
	resp, err := http.Post(ts.URL+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDrainsInFlight: a job already running completes normally
// during a drain with a generous deadline.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, doc := submit(t, ts, smallSpec(40), "")
	id := str(t, doc, "job_id")
	// Give the worker a moment to pick the job up, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.job(id).Status() == StatusQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	j := waitDone(t, s, id)
	if st := j.Status(); st != StatusDone {
		t.Fatalf("in-flight job after drain: %s, want done", st)
	}
}

// TestStatsEndpoint: counters show up on /v1/stats.
func TestStatsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, doc := submit(t, ts, smallSpec(50), "")
	waitDone(t, s, str(t, doc, "job_id"))
	submit(t, ts, smallSpec(50), "") // cache hit

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Submitted != 2 || st.Completed != 1 || st.CacheHits != 1 || st.StoredResults != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTerminalRecordedBeforeDone: the moment a job's done channel closes,
// the stats already count it and the journal already holds its done
// record — so a client that saw the job finish can never read a stale
// Completed count, and a crash after that moment cannot replay the job
// as queued. Run it under -race -count=20 to give the window a chance.
func TestTerminalRecordedBeforeDone(t *testing.T) {
	dataDir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers: 2, DataDir: dataDir, JournalNoSync: true,
		runFn: func(ctx context.Context, spec scenario.Spec, opts scenario.RunOpts) (*scenario.Result, scenario.RunInfo, error) {
			h, err := spec.Hash()
			return &scenario.Result{SpecHash: h, Topology: spec.Topology, Protocol: spec.Protocol, Seed: spec.Seed}, scenario.RunInfo{}, err
		},
	})
	const jobs = 40
	for i := 0; i < jobs; i++ {
		code, doc := submit(t, ts, smallSpec(int64(1000+i)), "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		id := str(t, doc, "job_id")
		waitDone(t, s, id)
		if got := s.completed.Load(); got != int64(i+1) {
			t.Fatalf("job %d: done channel closed with Completed %d, want %d", i, got, i+1)
		}
		f, err := os.Open(filepath.Join(dataDir, journalFile))
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := replayJournal(f)
		f.Close()
		journaled := false
		for _, rec := range recs {
			journaled = journaled || (rec.Op == opDone && rec.Job == id)
		}
		if !journaled {
			t.Fatalf("job %d (%s): done channel closed before its done record was journaled", i, id)
		}
	}
}

// TestResultHashValidation: GET /v1/results/{hash} only ever touches the
// store for well-formed spec hashes. ServeMux percent-decodes the path
// value after matching, so ..%2F sequences arrive as real "../" path
// components — they must be rejected before reaching the filesystem.
func TestResultHashValidation(t *testing.T) {
	dataDir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: WorkersNone, DataDir: dataDir})

	// A .json file outside the result store that a traversal would reach:
	// with hash "a/../../../secret", ResultStore.path joins
	// results/a/ + a/../../../secret.json, which cleans to
	// dataDir/secret.json.
	secret := filepath.Join(dataDir, "secret.json")
	if err := os.WriteFile(secret, []byte(`{"leak":true}`), 0o644); err != nil {
		t.Fatal(err)
	}

	get := func(rawHash string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/results/" + rawHash)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("a%2F..%2F..%2F..%2Fsecret"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("traversal hash: %d, want 404", resp.StatusCode)
	}
	for _, h := range []string{
		"abc",                             // too short
		strings.Repeat("A", 64),           // uppercase
		strings.Repeat("z", 64),           // not hex
		"..%2F" + strings.Repeat("a", 61), // traversal padded to 64 decoded chars
	} {
		if resp := get(h); resp.StatusCode != http.StatusNotFound {
			t.Errorf("hash %q: %d, want 404", h, resp.StatusCode)
		}
	}
	// The decoy must still be untouched and unserved.
	if b, err := os.ReadFile(secret); err != nil || string(b) != `{"leak":true}` {
		t.Fatalf("decoy file changed: %q, %v", b, err)
	}

	// ResultStore.Get itself refuses malformed hashes too.
	rs := &ResultStore{Dir: filepath.Join(dataDir, "results")}
	if _, ok := rs.Get("../secret"); ok {
		t.Fatal("ResultStore.Get served a traversal path")
	}
}

// TestFinishedJobPruning: terminal jobs beyond FinishedJobCap are
// forgotten oldest-first, so s.jobs stays bounded on a long-running
// daemon while the newest finished jobs remain addressable.
func TestFinishedJobPruning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, FinishedJobCap: 2})
	var ids []string
	for i := int64(0); i < 3; i++ {
		code, doc := submit(t, ts, smallSpec(400+i), "")
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%v)", i, code, doc)
		}
		id := str(t, doc, "job_id")
		waitDone(t, s, id)
		ids = append(ids, id)
	}
	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status(ids[0]); code != http.StatusNotFound {
		t.Errorf("oldest finished job still addressable: %d, want 404", code)
	}
	for _, id := range ids[1:] {
		if code := status(id); code != http.StatusOK {
			t.Errorf("recent finished job %s: %d, want 200", id, code)
		}
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("len(s.jobs) = %d, want 2", n)
	}
}

// TestBroadcastWriterSemantics covers the SSE fan-out buffer directly:
// fragment assembly, bounded retention, replay and close.
func TestBroadcastWriterSemantics(t *testing.T) {
	b := NewBroadcast(3)
	fmt.Fprint(b, "alpha\nbe")
	fmt.Fprint(b, "ta\n")
	lines, next, skipped, closed, _ := b.Next(0)
	if len(lines) != 2 || string(lines[0]) != "alpha" || string(lines[1]) != "beta" || skipped != 0 || closed {
		t.Fatalf("lines %q skipped=%d closed=%v", lines, skipped, closed)
	}
	fmt.Fprint(b, "gamma\ndelta\nepsilon\n") // overflows max=3, drops alpha+beta
	if d := b.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
	// The subscriber's cursor (next=2) is exactly at the window start, so
	// no mid-stream gap is reported for it.
	lines, next, skipped, _, _ = b.Next(next)
	if len(lines) != 3 || string(lines[0]) != "gamma" || skipped != 0 {
		t.Fatalf("after overflow: %q skipped=%d", lines, skipped)
	}
	fmt.Fprint(b, "tail-no-newline")
	b.Close()
	lines, _, _, closed, _ = b.Next(next)
	if !closed || len(lines) != 1 || string(lines[0]) != "tail-no-newline" {
		t.Fatalf("close: %q closed=%v", lines, closed)
	}
	// Writes after close are swallowed, not errors (late tracer flush).
	if n, err := b.Write([]byte("late\n")); n != 5 || err != nil {
		t.Fatalf("write after close: %d, %v", n, err)
	}
}

// TestBroadcastLiveFollow: a subscriber blocked on the signal channel
// wakes when the writer publishes.
func TestBroadcastLiveFollow(t *testing.T) {
	b := NewBroadcast(0)
	_, next, _, _, wait := b.Next(0)
	go func() {
		time.Sleep(10 * time.Millisecond)
		fmt.Fprint(b, "live\n")
		b.Close()
	}()
	select {
	case <-wait:
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never woke")
	}
	lines, _, _, _, _ := b.Next(next)
	if len(lines) != 1 || string(lines[0]) != "live" {
		t.Fatalf("live follow got %q", lines)
	}
}

// TestBroadcastLaggingSubscriberGap: a follower whose cursor has fallen
// behind the retention window learns the exact gap size from Next, both
// at attach (from=0) and mid-stream — not only on initial subscribe.
func TestBroadcastLaggingSubscriberGap(t *testing.T) {
	b := NewBroadcast(2)
	fmt.Fprint(b, "l1\nl2\nl3\nl4\n") // window now holds l3,l4; first=2
	lines, next, skipped, _, _ := b.Next(0)
	if skipped != 2 || len(lines) != 2 || string(lines[0]) != "l3" {
		t.Fatalf("attach: lines %q skipped=%d", lines, skipped)
	}
	// The follower stalls while four more lines push the window past its
	// cursor: l5,l6 fall out before it resumes.
	fmt.Fprint(b, "l5\nl6\nl7\nl8\n") // window l7,l8; first=6
	lines, _, skipped, _, _ = b.Next(next)
	if skipped != 2 || len(lines) != 2 || string(lines[0]) != "l7" {
		t.Fatalf("mid-stream: lines %q skipped=%d", lines, skipped)
	}
}
