package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the single closed-loop caller of an in-process cabled: each
// call runs the handler to completion on the caller's goroutine, with no
// TCP in between.
type client struct {
	h      http.Handler
	rec    recorder
	tr     *tracer
	digest io.Writer // nil outside tests
}

func newClient(h http.Handler, e env) *client {
	return &client{h: h, rec: recorder{header: http.Header{}}, tr: e.tr, digest: e.digest}
}

// call sends one request and returns the status, the body (valid until
// the next call) and the handler's wall time. In traced runs the handler
// call is one span named after the endpoint.
func (c *client) call(endpoint, method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, "http://cabled"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s: building request: %w", endpoint, err)
	}
	c.rec.reset()
	sp := c.tr.begin("server.handler." + endpoint)
	start := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	d := time.Since(start)
	c.tr.end(sp)
	c.tr.count("server.resp_bytes", float64(c.rec.body.Len()))
	if c.digest != nil {
		fmt.Fprintf(c.digest, "%s %s %d ", endpoint, method, c.rec.status())
		c.digest.Write(withoutIDs(c.rec.body.Bytes()))
	}
	return c.rec.status(), c.rec.body.Bytes(), d, nil
}

// withoutIDs re-encodes a JSON reply without the fields that differ
// between identical runs: server-chosen IDs and creation times.
func withoutIDs(body []byte) []byte {
	var v any
	if json.Unmarshal(body, &v) != nil {
		return body
	}
	var strip func(any)
	strip = func(v any) {
		switch t := v.(type) {
		case map[string]any:
			for _, k := range []string{"session_id", "stream_id", "parent", "created"} {
				delete(t, k)
			}
			for _, x := range t {
				strip(x)
			}
		case []any:
			for _, x := range t {
				strip(x)
			}
		}
	}
	strip(v)
	return mustJSON(v)
}

// callJSON is call plus a status check and a decode of the reply into out
// (nil skips the decode).
func (c *client) callJSON(endpoint, method, path string, body []byte, want int, out any) (time.Duration, error) {
	status, resp, d, err := c.call(endpoint, method, path, body)
	if err != nil {
		return d, err
	}
	if status != want {
		return d, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, resp)
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return d, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return d, nil
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

func (r *recorder) reset() {
	for k := range r.header {
		delete(r.header, k)
	}
	r.code = 0
	r.body.Reset()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding request: %v", err)) // request types are plain structs
	}
	return b
}
