package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/digs-net/digs/internal/scenario"
	"github.com/digs-net/digs/internal/server"
)

// client is a closed-loop caller of the digs-server API (served by a
// backend or by the gateway): it submits and then waits for the result.
type client struct {
	base string
	http *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		tr:   tr,
		http: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
}

// submitted is a POST /v1/scenarios answer: a cache hit (200, Result
// set) or an accepted job (202, JobID set).
type submitted struct {
	code     int
	JobID    string          `json:"job_id"`
	SpecHash string          `json:"spec_hash"`
	Cached   bool            `json:"cached"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

func (c *client) submit(spec scenario.Spec, op string, parent int) (*submitted, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	id := c.tr.begin("http.POST /v1/scenarios", op, parent)
	defer c.tr.end(id)
	resp, err := c.http.Post(c.base+"/v1/scenarios", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := &submitted{code: resp.StatusCode}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("submit: decoding HTTP %d: %w", resp.StatusCode, err)
	}
	if out.code != http.StatusOK && out.code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d: %s", out.code, out.Error)
	}
	return out, nil
}

// await follows the job's event stream to its done event and returns the
// final job view.
func (c *client) await(jobID, op string, parent int) (*server.View, error) {
	id := c.tr.begin("http.GET /v1/jobs/{id}/stream", op, parent)
	defer c.tr.end(id)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: HTTP %d", jobID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22)
	event := "message"
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			var v server.View
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return nil, err
			}
			if v.Status != server.StatusDone {
				return nil, fmt.Errorf("job %s ended %s: %s", jobID, v.Status, v.Error)
			}
			return &v, nil
		case line == "":
			event = "message"
		}
	}
	return nil, fmt.Errorf("stream %s ended without a done event (%v)", jobID, sc.Err())
}

// run submits spec and waits for its result, returning the job view (nil
// for a cache hit) and the canonical result bytes.
func (c *client) run(spec scenario.Spec, op string, parent int) (*server.View, []byte, error) {
	sub, err := c.submit(spec, op, parent)
	if err != nil {
		return nil, nil, err
	}
	if sub.code == http.StatusOK {
		return nil, sub.Result, nil
	}
	v, err := c.await(sub.JobID, op, parent)
	if err != nil {
		return nil, nil, err
	}
	if err := verifyResult(v.Result, v.ResultHash); err != nil {
		return nil, nil, fmt.Errorf("job %s: %w", v.JobID, err)
	}
	return v, v.Result, nil
}

// get fetches a path and returns status and body.
func (c *client) get(path, name, op string, parent int) (int, []byte, error) {
	id := c.tr.begin(name, op, parent)
	defer c.tr.end(id)
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) stats(into any) error {
	code, b, err := c.get("/v1/stats", "http.GET /v1/stats", "stats", 0)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("stats: HTTP %d", code)
	}
	return json.Unmarshal(b, into)
}

// verifyResult re-derives a result's content hash on the client side.
func verifyResult(result []byte, want string) error {
	sum := sha256.Sum256(result)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("result hash %s, server reported %s", got, want)
	}
	return nil
}

// serve runs h on a loopback listener until the returned stop is called;
// stop waits for the serving goroutine to exit.
func serve(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// backend is one in-process digs-server with its HTTP listener.
type backend struct {
	srv  *server.Server
	base string
	stop func()
}

// startBackend starts a digs-server with the default configuration
// (journal fsynced, result store and warm pool under dir).
func startBackend(dir, name string) (*backend, error) {
	srv, err := server.New(server.Config{DataDir: dir, Name: name})
	if err != nil {
		return nil, err
	}
	base, stopHTTP, err := serve(srv.Handler())
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	return &backend{srv: srv, base: base, stop: func() {
		stopHTTP()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}}, nil
}

// waitOK polls path until it answers 200.
func waitOK(c *client, path string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := c.get(path, "http.GET "+path, "setup", 0)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s%s not ready: %v (HTTP %d)", c.base, path, err, code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
