package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fa"
	"repro/internal/scanio"
	"repro/internal/server/apiv1"
	"repro/internal/trace"
)

// TestCabledSmoke builds the real binary, runs it, exercises the create →
// label → export path over TCP, then delivers SIGTERM while a large
// lattice build is in flight and requires a clean exit within the grace
// period. This is the deployment-shaped check the in-process httptest
// suite cannot provide.
func TestCabledSmoke(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "cabled")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics",
		"-shutdown-timeout", "5s", "-request-timeout", "1m")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The first stderr line announces the bound address.
	sc := scanio.NewScanner(stderr)
	var addr string
	if sc.Scan() {
		line := sc.Text()
		if i := strings.LastIndex(line, " "); i >= 0 {
			addr = line[i+1:]
		}
	}
	if addr == "" {
		t.Fatalf("no listen address announced: %v", sc.Err())
	}
	rest := &bytes.Buffer{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			fmt.Fprintln(rest, sc.Text())
		}
	}()
	base := "http://" + addr

	// Quick functional pass with a small session.
	small := fixtureJSON(t, 6)
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	var created apiv1.CreateSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(apiv1.LabelRequest{Concept: &created.Top, Selector: &apiv1.Selector{Mode: "all"}, Label: "good"})
	resp, err = http.Post(base+"/v1/sessions/"+created.SessionID+"/label", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label: status %d", resp.StatusCode)
	}

	// Fire a big build and SIGTERM mid-flight: the request context is
	// cancelled, and the process must drain within its grace period.
	big := fixtureJSON(t, 22) // C(22,3) = 1540 classes
	buildErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(big))
		if err == nil {
			resp.Body.Close()
		}
		buildErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the build start
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain stderr to EOF before Wait: Wait closes the pipe and would
	// discard any buffered-but-unread shutdown output.
	exit := make(chan error, 1)
	go func() { <-done; exit <- cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("cabled exited uncleanly: %v\n%s", err, rest.String())
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("cabled did not shut down within the grace period")
	}
	<-buildErr
	out := rest.String()
	if !strings.Contains(out, "shutting down") || !strings.Contains(out, "cabled: stopped") {
		t.Errorf("shutdown banner missing from stderr:\n%s", out)
	}
	// -metrics dumps a snapshot on exit; the request counters must be in it.
	if !strings.Contains(out, "server.req.create_session") {
		t.Errorf("metrics snapshot missing from stderr:\n%s", out)
	}
}

// cabledProc is one running cabled process for the kill/restart test.
type cabledProc struct {
	cmd  *exec.Cmd
	addr string
}

// startCabled launches the built binary with a snapshot dir and waits for
// its listen announcement.
func startCabled(t *testing.T, bin, snapDir string) *cabledProc {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-snapshot-dir", snapDir,
		"-shutdown-timeout", "5s", "-request-timeout", "1m")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := scanio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "listening on") {
			if i := strings.LastIndex(line, " "); i >= 0 {
				addr = line[i+1:]
			}
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		t.Fatalf("no listen address announced: %v", sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return &cabledProc{cmd: cmd, addr: addr}
}

func (p *cabledProc) post(t *testing.T, path string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post("http://"+p.addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func (p *cabledProc) get(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get("http://" + p.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestSnapshotKillRestart is the crash-safety acceptance check at the
// process level: create and label sessions, SIGKILL the server (no
// drain, no cleanup), restart it on the same snapshot directory, and
// require every session back — same IDs, every label intact.
func TestSnapshotKillRestart(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "cabled")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	snapDir := t.TempDir()

	p1 := startCabled(t, bin, snapDir)
	defer p1.cmd.Process.Kill()

	var created apiv1.CreateSessionResponse
	if code := p1.post(t, "/v1/sessions", fixtureJSON(t, 6), &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	// Label everything good via the top concept, then flip class 0 bad —
	// two WAL-logged actions on top of the creation snapshot.
	body, _ := json.Marshal(apiv1.LabelRequest{Concept: &created.Top, Selector: &apiv1.Selector{Mode: "all"}, Label: "good"})
	if code := p1.post(t, "/v1/sessions/"+created.SessionID+"/label", body, nil); code != http.StatusOK {
		t.Fatalf("label: %d", code)
	}
	zero := 0
	body, _ = json.Marshal(apiv1.LabelRequest{Trace: &zero, Label: "bad"})
	if code := p1.post(t, "/v1/sessions/"+created.SessionID+"/label", body, nil); code != http.StatusOK {
		t.Fatalf("label: %d", code)
	}

	// SIGKILL: no shutdown handler runs, the WAL tail is whatever made it
	// to the filesystem — which is everything, since appends complete
	// before the response is written.
	if err := p1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	p1.cmd.Wait()

	p2 := startCabled(t, bin, snapDir)
	defer p2.cmd.Process.Kill()
	defer func() {
		p2.cmd.Process.Signal(syscall.SIGTERM)
		p2.cmd.Wait()
	}()

	var info apiv1.SessionInfo
	if code := p2.get(t, "/v1/sessions/"+created.SessionID, &info); code != http.StatusOK {
		t.Fatalf("restored session not found after SIGKILL restart: %d", code)
	}
	if info.NumTraces != created.NumTraces || info.NumConcepts != created.NumConcepts {
		t.Fatalf("restored shape %+v, want %d/%d", info, created.NumTraces, created.NumConcepts)
	}
	if !info.Done {
		t.Fatalf("restored session lost labels: %+v", info)
	}
	var traces apiv1.TraceList
	if code := p2.get(t, "/v1/sessions/"+created.SessionID+"/traces", &traces); code != http.StatusOK {
		t.Fatalf("traces: %d", code)
	}
	for i, tc := range traces.Traces {
		want := "good"
		if i == 0 {
			want = "bad"
		}
		if tc.Label != want {
			t.Errorf("class %d label %q after restart, want %q", i, tc.Label, want)
		}
	}
}

// TestDrainClosesUnusedConns: a connection that was dialed but never sent
// a request, as a client's connection pool leaves behind, must not hold
// the SIGTERM drain. cabled must exit 0 well inside its 5 s grace period.
func TestDrainClosesUnusedConns(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM delivery is POSIX-only")
	}
	bin := filepath.Join(t.TempDir(), "cabled")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	p := startCabled(t, bin, t.TempDir())
	defer p.cmd.Process.Kill()

	raw, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The server accepts connections in dial order, so once a request on a
	// later connection is answered, the raw one has been accepted too.
	if code := p.get(t, "/v1/sessions", nil); code != http.StatusOK {
		t.Fatalf("list sessions: %d", code)
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exit := make(chan error, 1)
	go func() { exit <- p.cmd.Wait() }()
	select {
	case err := <-exit:
		if err != nil {
			t.Fatalf("cabled exited uncleanly with an unused connection open: %v", err)
		}
	case <-time.After(3 * time.Second):
		p.cmd.Process.Kill()
		t.Fatal("cabled did not drain within 3 s with an unused connection open")
	}
}

// TestNegativeDurationFlags: a negative -request-timeout, -idle-timeout or
// -shutdown-timeout would run as 0 (no request deadline, no idle eviction,
// no drain grace), so cabled must exit 2 naming the flag before it
// listens. A cabled that serves instead is killed at the deadline.
func TestNegativeDurationFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cabled")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, flag := range []string{"-request-timeout", "-idle-timeout", "-shutdown-timeout"} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", flag, "-1s").CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), flag) {
			t.Errorf("cabled %s -1s: %v, output %q; want exit 2 naming %s", flag, err, out, flag)
		}
	}
}

// fixtureJSON serializes the all-3-subsets-of-n trace set and a matching
// permissive FA as a create-session payload.
func fixtureJSON(t *testing.T, n int) []byte {
	t.Helper()
	var traces []trace.Trace
	id := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				traces = append(traces, trace.ParseEvents(fmt.Sprintf("t%d", id),
					fmt.Sprintf("e%d()", i), fmt.Sprintf("e%d()", j), fmt.Sprintf("e%d()", k)))
				id++
			}
		}
	}
	set := trace.NewSet(traces...)
	var tb, fb strings.Builder
	if err := trace.Write(&tb, set); err != nil {
		t.Fatal(err)
	}
	if err := fa.Write(&fb, fa.FromTraces(set.Alphabet())); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(apiv1.CreateSessionRequest{Traces: tb.String(), RefFA: fb.String()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}
