package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// newDurableServer builds a Server over the given data dir (rate limiting
// off) and wraps it in an httptest server — the crash/recover tests spin up
// several over one dir.
func newDurableServer(t *testing.T, dir string, override func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Platform: testPlatform(t), TenantRate: -1, DataDir: dir}
	if override != nil {
		override(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRecoverTraceMatchesUninterrupted is the tentpole's kill-at-any-step
// gate at the HTTP level: a durable session crashed mid-run (daemon
// abandoned with no shutdown of any kind) and recovered by a fresh daemon
// over the same data dir, then driven to completion, must stream a trace
// byte-identical to a session that never crashed — operator trip included.
func TestRecoverTraceMatchesUninterrupted(t *testing.T) {
	tuple := CreateRequest{Scheme: "yukta-supervised", App: "gamess",
		FaultClass: "all", FaultSeed: 7, FaultIntensity: 1, MaxTimeS: 30}

	// Uninterrupted reference on a plain in-memory server: step 17, trip,
	// then drive to completion.
	_, tsRef := newTestServer(t, nil)
	ref := create(t, tsRef, tuple)
	do(t, "POST", tsRef.URL+"/v1/sessions/"+ref.ID+"/step", StepRequest{Steps: 17}, nil)
	if code := do(t, "POST", tsRef.URL+"/v1/sessions/"+ref.ID+"/trip", nil, nil); code != http.StatusOK {
		t.Fatalf("reference trip: status %d", code)
	}
	stepToDone(t, tsRef, ref.ID, 9)
	want := fetchTrace(t, tsRef, ref.ID)

	// Crashed run: same tuple on a durable daemon, same operations up to
	// step 22, then the daemon is abandoned (only the listener dies — what a
	// SIGKILL leaves behind, since every acknowledged mutation is fsync'd).
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir, nil)
	sess := create(t, tsA, tuple)
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 17, Seq: 1}, nil)
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/trip", nil, nil)
	var preCrash StepResponse
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 5, Seq: 2}, &preCrash)
	tsA.Close()

	sB, tsB := newDurableServer(t, dir, nil)
	if !sB.NeedsRecovery() {
		t.Fatal("daemon B sees no leftover session logs")
	}
	rep := sB.Recover()
	if rep.Recovered != 1 || rep.Abandoned != 0 || rep.Truncated != 0 {
		t.Fatalf("recover report %+v; want exactly 1 recovered", rep)
	}
	if rep.ReplayedSteps != preCrash.Steps {
		t.Fatalf("replayed %d steps; want the logged %d", rep.ReplayedSteps, preCrash.Steps)
	}

	// The recovered session is at the exact pre-crash position, same ID,
	// same supervisory state.
	var info SessionInfo
	if code := do(t, "GET", tsB.URL+"/v1/sessions/"+sess.ID, nil, &info); code != http.StatusOK {
		t.Fatalf("recovered session GET: status %d", code)
	}
	if info.Steps != preCrash.Steps || info.SupState != preCrash.SupState {
		t.Fatalf("recovered session = steps %d state %q; want steps %d state %q",
			info.Steps, info.SupState, preCrash.Steps, preCrash.SupState)
	}

	// A retry of the last acknowledged sequence number returns the recorded
	// outcome — idempotency survives the crash.
	var replay StepResponse
	do(t, "POST", tsB.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 5, Seq: 2}, &replay)
	if replay.Steps != preCrash.Steps || replay.Executed != preCrash.Executed {
		t.Fatalf("post-crash retry of seq 2 = %+v; want the pre-crash outcome %+v", replay, preCrash)
	}

	stepToDone(t, tsB, sess.ID, 9)
	got := fetchTrace(t, tsB, sess.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered trace differs from uninterrupted trace (%d vs %d bytes)", len(got), len(want))
	}

	// Fresh sessions do not collide with recovered IDs, and the recovery
	// counters are on the metrics surface.
	fresh := create(t, tsB, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
	if fresh.ID == sess.ID {
		t.Fatalf("fresh session reused recovered ID %s", sess.ID)
	}
	snap := sB.Registry().Snapshot()
	if got, _ := snap["serve_recovered_sessions_total"].(int64); got != 1 {
		t.Fatalf("serve_recovered_sessions_total = %v; want 1", snap["serve_recovered_sessions_total"])
	}
}

// TestRecoverTruncatedTail corrupts the last WAL record (a bad sector, a
// torn write) and checks recovery truncates back to the last valid record,
// resumes at the rolled-back position, surfaces the damage in metrics —
// and that driving the session on still converges to the uninterrupted
// trace, because only unacknowledged work can live past the valid prefix.
func TestRecoverTruncatedTail(t *testing.T) {
	tuple := CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 20}

	_, tsRef := newTestServer(t, nil)
	ref := create(t, tsRef, tuple)
	stepToDone(t, tsRef, ref.ID, 6)
	want := fetchTrace(t, tsRef, ref.ID)

	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir, nil)
	sess := create(t, tsA, tuple)
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 10, Seq: 1}, nil)
	var second StepResponse
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 7, Seq: 2}, &second)
	tsA.Close()

	// Corrupt the last record in place.
	path := sessionWALPath(dir, sess.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-5] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newDurableServer(t, dir, nil)
	rep := sB.Recover()
	if rep.Recovered != 1 || rep.Truncated != 1 {
		t.Fatalf("recover report %+v; want 1 recovered with 1 truncated tail", rep)
	}
	var info SessionInfo
	do(t, "GET", tsB.URL+"/v1/sessions/"+sess.ID, nil, &info)
	if info.Steps != second.Steps-second.Executed {
		t.Fatalf("truncated session at step %d; want rolled back to %d", info.Steps, second.Steps-second.Executed)
	}
	snap := sB.Registry().Snapshot()
	if got, _ := snap["serve_recover_truncated_total"].(int64); got != 1 {
		t.Fatalf("serve_recover_truncated_total = %v; want 1", snap["serve_recover_truncated_total"])
	}

	stepToDone(t, tsB, sess.ID, 6)
	got := fetchTrace(t, tsB, sess.ID)
	if !bytes.Equal(want, got) {
		t.Fatalf("post-truncation trace differs from uninterrupted trace (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRecoverLegacyEngineField pins WAL backward compatibility: logs written
// before the engine selector was retired carry an "engine":"lockstep" key in
// their create record. Such a log must still recover, to a /trace
// byte-identical to an uninterrupted session — so WAL and create decoding
// must keep ignoring unknown fields.
func TestRecoverLegacyEngineField(t *testing.T) {
	tuple := CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 20}

	_, tsRef := newTestServer(t, nil)
	ref := create(t, tsRef, tuple)
	stepToDone(t, tsRef, ref.ID, 6)
	want := fetchTrace(t, tsRef, ref.ID)

	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir, nil)
	sess := create(t, tsA, tuple)
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 10, Seq: 1}, nil)
	tsA.Close()

	// Rewrite the create record as an older daemon wrote it: the retired
	// engine key inside the request, under a valid CRC.
	path := sessionWALPath(dir, sess.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, rest, _ := bytes.Cut(raw, []byte("\n"))
	_, payload, _ := bytes.Cut(first, []byte(" "))
	legacy := bytes.Replace(payload, []byte(`"req":{`), []byte(`"req":{"engine":"lockstep",`), 1)
	if bytes.Equal(legacy, payload) {
		t.Fatalf("create record %q has no request object", payload)
	}
	var log bytes.Buffer
	fmt.Fprintf(&log, "%08x %s\n", crc32.ChecksumIEEE(legacy), legacy)
	log.Write(rest)
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newDurableServer(t, dir, nil)
	rep := sB.Recover()
	if rep.Recovered != 1 || rep.Abandoned != 0 || rep.Truncated != 0 || rep.ReplayedSteps != 10 {
		t.Fatalf("recover report %+v; want 1 recovered session replaying 10 steps", rep)
	}
	stepToDone(t, tsB, sess.ID, 6)
	if got := fetchTrace(t, tsB, sess.ID); !bytes.Equal(want, got) {
		t.Fatalf("legacy-log trace differs from uninterrupted trace (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRecoverAbandonsCorruptLog checks the abandon path: a log with no
// valid create record is set aside with an .abandoned suffix, counted, and
// startup proceeds — damage never turns into a crash loop.
func TestRecoverAbandonsCorruptLog(t *testing.T) {
	dir := t.TempDir()
	// A garbage file and a structurally valid log that starts mid-history.
	if err := os.MkdirAll(dir+"/sessions", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/sessions/s-1.wal", []byte("not a log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeWAL(t, dir+"/sessions/s-2.wal", []walRecord{{T: walOpStep, N: 5}})

	sB, tsB := newDurableServer(t, dir, nil)
	if !sB.NeedsRecovery() {
		t.Fatal("leftover logs not detected")
	}
	rep := sB.Recover()
	if rep.Scanned != 2 || rep.Abandoned != 2 || rep.Recovered != 0 {
		t.Fatalf("recover report %+v; want both logs abandoned", rep)
	}
	for _, name := range []string{"s-1.wal.abandoned", "s-2.wal.abandoned"} {
		if _, err := os.Stat(dir + "/sessions/" + name); err != nil {
			t.Errorf("abandoned log %s not set aside: %v", name, err)
		}
	}
	snap := sB.Registry().Snapshot()
	if got, _ := snap["serve_recover_abandoned_total"].(int64); got != 2 {
		t.Fatalf("serve_recover_abandoned_total = %v; want 2", snap["serve_recover_abandoned_total"])
	}
	// The fence lifted and the daemon serves.
	create(t, tsB, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 5})
}

// TestRecoveryFence checks the startup fence: until Recover completes,
// every /v1 endpoint answers 503 "recovering" with a Retry-After, while
// /healthz reports the recovering status for probes.
func TestRecoveryFence(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir, nil)
	create(t, tsA, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 10})
	tsA.Close()

	sB, tsB := newDurableServer(t, dir, nil)
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions"},
		{"POST", "/v1/sessions"},
		{"GET", "/v1/sessions/s-1"},
		{"POST", "/v1/sessions/s-1/step"},
		{"GET", "/v1/metrics"},
	} {
		req, err := http.NewRequest(probe.method, tsB.URL+probe.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var eb struct {
			Code string `json:"code"`
		}
		_ = json.Unmarshal(raw, &eb)
		if resp.StatusCode != http.StatusServiceUnavailable || eb.Code != "recovering" {
			t.Errorf("%s %s during recovery: status %d code %q; want 503/recovering", probe.method, probe.path, resp.StatusCode, eb.Code)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s %s during recovery: no Retry-After", probe.method, probe.path)
		}
	}
	var h HealthResponse
	do(t, "GET", tsB.URL+"/healthz", nil, &h)
	if h.Status != "recovering" {
		t.Fatalf("healthz status %q during recovery; want recovering", h.Status)
	}

	sB.Recover()
	var list ListResponse
	if code := do(t, "GET", tsB.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list.Sessions) != 1 {
		t.Fatalf("post-recovery list: status %d, %d sessions; want 200 with 1", code, len(list.Sessions))
	}
	do(t, "GET", tsB.URL+"/healthz", nil, &h)
	if h.Status != "ok" {
		t.Fatalf("healthz status %q after recovery; want ok", h.Status)
	}
}

// TestStepSeqIdempotency exercises the client sequencing contract on the
// live path (no crash): an exact retry returns the cached outcome without
// re-executing, an older sequence number is rejected 409 stale_seq, and a
// negative one 400.
func TestStepSeqIdempotency(t *testing.T) {
	s, ts := newTestServer(t, nil)
	sess := create(t, ts, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 20})

	var first, retry, next StepResponse
	do(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 5, Seq: 1}, &first)
	if first.Executed != 5 || first.Steps != 5 {
		t.Fatalf("first step = %+v; want 5 executed", first)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 5, Seq: 1}, &retry); code != http.StatusOK {
		t.Fatalf("retried step: status %d", code)
	}
	if retry != first {
		t.Fatalf("retried step = %+v; want the cached %+v", retry, first)
	}
	var info SessionInfo
	do(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, &info)
	if info.Steps != 5 {
		t.Fatalf("session advanced to %d by a retried request; want 5", info.Steps)
	}

	do(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 3, Seq: 2}, &next)
	if next.Steps != 8 {
		t.Fatalf("next step landed at %d; want 8", next.Steps)
	}
	var eb struct {
		Code string `json:"code"`
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 3, Seq: 1}, &eb); code != http.StatusConflict || eb.Code != "stale_seq" {
		t.Fatalf("stale seq: status %d code %q; want 409/stale_seq", code, eb.Code)
	}
	if code := do(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 3, Seq: -1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("negative seq: status %d; want 400", code)
	}

	// The cached retry must not double-count in the step metrics.
	snap := s.Registry().Snapshot()
	if got, _ := snap["serve_steps_total"].(int64); got != 8 {
		t.Fatalf("serve_steps_total = %v; want 8 (retry not double-counted)", snap["serve_steps_total"])
	}
}

// TestDurableDeleteRemovesLog checks the full lifecycle leaves no residue:
// deleting a durable session removes its log, so a restart has nothing to
// recover.
func TestDurableDeleteRemovesLog(t *testing.T) {
	dir := t.TempDir()
	_, tsA := newDurableServer(t, dir, nil)
	sess := create(t, tsA, CreateRequest{Scheme: "coordinated", App: "gamess", MaxTimeS: 10})
	do(t, "POST", tsA.URL+"/v1/sessions/"+sess.ID+"/step", StepRequest{Steps: 5, Seq: 1}, nil)
	path := sessionWALPath(dir, sess.ID)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("durable session has no log: %v", err)
	}
	if code := do(t, "DELETE", tsA.URL+"/v1/sessions/"+sess.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("deleted session's log still on disk (stat err %v)", err)
	}
	tsA.Close()
	sB, _ := newDurableServer(t, dir, nil)
	if sB.NeedsRecovery() {
		t.Fatal("clean shutdownless restart after delete still wants recovery")
	}
}
