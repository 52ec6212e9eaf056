package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var raw json.RawMessage
	if err := dec.Decode(&raw); err == nil {
		buf.Write(raw)
	}
	return resp, []byte(buf.String())
}

func TestHTTPJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Compute, then hit the cache; the response bytes must round-trip
	// the identical result.
	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Archserve-Origin"); got != "computed" {
		t.Fatalf("origin header %q, want computed", got)
	}
	var first JobResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("decode response: %v", err)
	}

	resp, body = postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Archserve-Origin"); got != "cache" {
		t.Fatalf("origin header %q, want cache", got)
	}
	var second JobResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatalf("decode cached response: %v", err)
	}
	// JSON round-trip preserves float64 bits (shortest representation),
	// so the decoded results must still compare bitwise equal.
	if !second.Result.BitwiseEqual(first.Result) {
		t.Fatalf("cached HTTP result is not bitwise identical")
	}

	// Error mapping.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"preset":"nope"}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"preset":"small-a","spec":{"NX":8}}`, http.StatusBadRequest},
		{`{"spec":{"NX":8,"NY":8,"NZ":8,"Steps":0,"DT":0.5}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, _ := postJob(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("POST %s -> %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs should be 405")
	}

	// Stats and metrics reflect the traffic.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %v (%d)", err, resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.JobsOK != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = ok %d hits %d, want 1/1", st.JobsOK, st.CacheHits)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		`archserve_jobs_total{status="ok"} 1`,
		"archserve_cache_hits_total 1",
		"archserve_queue_capacity 16",
		`archserve_job_phase_seconds_total{phase="compute"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v", err)
	}
}

func TestHTTPOverloadMapsTo429(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hold := &testHold{entered: make(chan *job, 4), release: make(chan struct{})}
	s.pool.setHold(hold)
	done := make(chan int, 4)
	go func() {
		resp, _ := postJob(t, ts, `{"spec":`+specJSON(uniqueSpec(50))+`}`)
		done <- resp.StatusCode
	}()
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	go func() {
		resp, _ := postJob(t, ts, `{"spec":`+specJSON(uniqueSpec(51))+`}`)
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	resp, body := postJob(t, ts, `{"spec":`+specJSON(uniqueSpec(52))+`}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload POST status %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Kind != "overloaded" {
		t.Fatalf("error body %s, want kind overloaded", body)
	}

	close(hold.release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("held request finished with %d", code)
		}
	}
}

func TestHTTPDrainingMapsTo503(t *testing.T) {
	s := New(Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d (%s), want 503", resp.StatusCode, body)
	}
	if hresp, err := http.Get(ts.URL + "/healthz"); err != nil || hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining should be 503")
	}
}

func specJSON(s interface{ Fingerprint() uint64 }) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// getCacheEntry fetches GET /v1/cache/{fp} and returns status + body.
func getCacheEntry(t *testing.T, ts *httptest.Server, fp string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cache/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// putCacheEntry PUTs body to /v1/cache/{fp} and returns status + body.
func putCacheEntry(t *testing.T, ts *httptest.Server, fp string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+fp, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, rb
}

// TestHTTPCacheTransferRoundTrip: a result computed on one node moves to
// another through GET → PUT with the body passed through verbatim, and
// the receiver then serves the job from its cache — the wire form of the
// replication/handoff primitive.
func TestHTTPCacheTransferRoundTrip(t *testing.T) {
	src := newTestServer(t, Config{P: 2, Workers: 1})
	dst := newTestServer(t, Config{P: 2, Workers: 1})
	tsSrc := httptest.NewServer(src.Handler())
	defer tsSrc.Close()
	tsDst := httptest.NewServer(dst.Handler())
	defer tsDst.Close()

	resp, body := postJob(t, tsSrc, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compute status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	fp := jr.Result.Fingerprint

	status, entry := getCacheEntry(t, tsSrc, fp)
	if status != http.StatusOK {
		t.Fatalf("GET cache entry status %d: %s", status, entry)
	}
	if status, rb := putCacheEntry(t, tsDst, fp, entry); status != http.StatusNoContent {
		t.Fatalf("PUT cache entry status %d: %s", status, rb)
	}

	// The receiver now serves the same bytes...
	status2, entry2 := getCacheEntry(t, tsDst, fp)
	if status2 != http.StatusOK || string(entry2) != string(entry) {
		t.Fatalf("re-exported entry differs (status %d):\n src %s\n dst %s", status2, entry, entry2)
	}
	// ...and answers the job itself as a cache hit, bitwise equal.
	resp, body = postJob(t, tsDst, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("receiver submit status %d", resp.StatusCode)
	}
	var jr2 JobResponse
	if err := json.Unmarshal(body, &jr2); err != nil {
		t.Fatal(err)
	}
	if jr2.Origin != "cache" {
		t.Fatalf("receiver origin %q, want cache (imported entry)", jr2.Origin)
	}
	if !jr.Result.BitwiseEqual(jr2.Result) {
		t.Fatal("imported result not bitwise equal to the computed one")
	}

	if st := dst.Stats(); st.ReplicatedIn != 1 {
		t.Fatalf("receiver replicated_in %d, want 1", st.ReplicatedIn)
	}
	if st := src.Stats(); st.ReplicatedOut < 1 {
		t.Fatalf("source replicated_out %d, want >= 1", st.ReplicatedOut)
	}

	// The index lists the entry on both sides.
	iresp, err := http.Get(tsDst.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	var idx CacheIndex
	if err := json.NewDecoder(iresp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Fingerprints) != 1 || idx.Fingerprints[0] != fp {
		t.Fatalf("receiver index %v, want [%s]", idx.Fingerprints, fp)
	}
}

// TestHTTPCacheEntryRejections: the admission guards — a mismatched
// fingerprint is 400 (the one corruption the cache must never accept),
// malformed paths are 400, wrong methods 405.
func TestHTTPCacheEntryRejections(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compute status %d", resp.StatusCode)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	_, entry := getCacheEntry(t, ts, jr.Result.Fingerprint)

	// Same valid body, wrong path fingerprint: rejected, not admitted.
	wrong := "0000000000000001"
	if wrong == jr.Result.Fingerprint {
		wrong = "0000000000000002"
	}
	status, rb := putCacheEntry(t, ts, wrong, entry)
	if status != http.StatusBadRequest || !strings.Contains(string(rb), "fingerprint_mismatch") {
		t.Fatalf("mismatched PUT status %d body %s, want 400 fingerprint_mismatch", status, rb)
	}
	if _, ok := s.CachedResult(mustParseFP(t, wrong)); ok {
		t.Fatal("mismatched entry was admitted")
	}

	for _, fp := range []string{"zz", "123", "00000000000000000", "g000000000000000"} {
		if status, _ := getCacheEntry(t, ts, fp); status != http.StatusBadRequest {
			t.Fatalf("GET bad path %q status %d, want 400", fp, status)
		}
	}
	if status, _ := putCacheEntry(t, ts, jr.Result.Fingerprint, []byte("not json")); status != http.StatusBadRequest {
		t.Fatalf("PUT garbage body status %d, want 400", status)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache/"+jr.Result.Fingerprint, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed || dresp.Header.Get("Allow") != "GET, PUT" {
		t.Fatalf("DELETE status %d Allow %q, want 405 with GET, PUT", dresp.StatusCode, dresp.Header.Get("Allow"))
	}
}

// TestHTTPCacheDisabled: with the cache off there is nothing to export
// or admit — every cache endpoint answers 409 cache_disabled.
func TestHTTPCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := getCacheEntry(t, ts, "0000000000000001"); status != http.StatusConflict || !strings.Contains(string(body), "cache_disabled") {
		t.Fatalf("GET entry status %d body %s, want 409 cache_disabled", status, body)
	}
	if status, _ := putCacheEntry(t, ts, "0000000000000001", []byte("{}")); status != http.StatusConflict {
		t.Fatalf("PUT entry status %d, want 409", status)
	}
	iresp, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusConflict {
		t.Fatalf("GET index status %d, want 409", iresp.StatusCode)
	}
}

// TestHTTPCacheDrainingExportsButRefusesImports: the drain window is
// when a leaving node's cache is pulled, so GETs (entries and index)
// keep working; admission is refused with 503 — the node is leaving, a
// new entry would be stranded.
func TestHTTPCacheDrainingExportsButRefusesImports(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compute status %d", resp.StatusCode)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	fp := jr.Result.Fingerprint
	_, entry := getCacheEntry(t, ts, fp)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if status, _ := getCacheEntry(t, ts, fp); status != http.StatusOK {
		t.Fatalf("draining GET entry status %d, want 200 (export window)", status)
	}
	iresp, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("draining GET index status %d, want 200", iresp.StatusCode)
	}
	if status, rb := putCacheEntry(t, ts, fp, entry); status != http.StatusServiceUnavailable || !strings.Contains(string(rb), "draining") {
		t.Fatalf("draining PUT status %d body %s, want 503 draining", status, rb)
	}
}

func mustParseFP(t *testing.T, s string) uint64 {
	t.Helper()
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestWriteJSONNonFinite: a cached result holding a NaN cannot be
// encoded, so the handler must answer a typed 500 instead of a 200 with
// an empty body; an encodable value keeps the encoder's exact bytes.
func TestWriteJSONNonFinite(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const fp = 0x1234
	s.cache.put(fp, &JobResult{Fingerprint: fingerprintString(fp), Probe: []float64{1, math.NaN()}})
	resp, err := http.Get(fmt.Sprintf("%s/v1/cache/%016x", ts.URL, fp))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Kind != "encode" {
		t.Fatalf("error body %q, want kind encode", body)
	}

	ok := JobResult{Fingerprint: "x", Probe: []float64{0.1, -2}, Work: 3}
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(ok)
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ok)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("writeJSON = %d %q, want 200 %q", rec.Code, rec.Body.Bytes(), want.Bytes())
	}
}
