package service

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"github.com/holisticim/holisticim"
)

// planned is the JobSpec of a query job: it carries a Plan, so once done
// the job keeps answering its key.
func planned(key string) JobSpec { return JobSpec{Key: key, Plan: &Plan{}} }

// submitDone submits a query job under key and waits for it to finish.
func submitDone(t *testing.T, m *Manager, key string) *Job {
	t.Helper()
	j, created, err := m.Submit(planned(key), func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{Algorithm: key}), nil
	})
	if err != nil || !created {
		t.Fatalf("Submit(%s): created=%v err=%v", key, created, err)
	}
	waitDone(t, j)
	return j
}

// answered resubmits key and reports whether a done job answered it. When
// none did, the resubmission's own job runs to completion.
func answered(t *testing.T, m *Manager, key string) (*Job, bool) {
	t.Helper()
	j, created, err := m.Submit(planned(key), func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		return answerOf(SelectResult{Algorithm: key}), nil
	})
	if err != nil {
		t.Fatalf("Submit(%s): %v", key, err)
	}
	waitDone(t, j)
	return j, !created
}

// TestCacheHitAndMiss: the first query misses and runs a job; the repeat
// is answered by that done job, 200 and inline, without a second run.
func TestCacheHitAndMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := QueryRequest{Graph: "g", Task: "select", Algorithm: "degree-discount", K: 4}
	var first QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &first); code != http.StatusAccepted || first.Cached {
		t.Fatalf("first query: status %d %+v", code, first)
	}
	done := pollQueryJob(t, ts.URL, first.JobID)
	var second QueryResponse
	if code := doJSON(t, "POST", ts.URL+"/v2/query", req, &second); code != http.StatusOK || !second.Cached || second.JobID != "" {
		t.Fatalf("repeat query: status %d %+v", code, second)
	}
	if got, want := second.Answer.Members[0].Result.Seeds, done.Answer.Members[0].Result.Seeds; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("hit answered seeds %v, job answered %v", got, want)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheSize != 1 || st.QueriesRun != 1 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 entry, 1 query run", st)
	}
}

// TestManagerDoneKeyAnswers: a key whose query job is done returns that
// same job, and the new JobFunc never runs.
func TestManagerDoneKeyAnswers(t *testing.T) {
	m := NewManager(1, 8, 16)
	defer m.Close()
	j1 := submitDone(t, m, "k")
	j2, created, err := m.Submit(planned("k"), func(ctx context.Context, report func(int)) (*QueryAnswer, error) {
		t.Error("a done key ran a second JobFunc")
		return nil, nil
	})
	if err != nil || created || j2 != j1 {
		t.Fatalf("resubmitted done key: created=%v same=%v err=%v", created, j2 == j1, err)
	}
	if m.Submitted() != 1 || m.Deduped() != 0 {
		t.Fatalf("submitted=%d deduped=%d, want 1/0", m.Submitted(), m.Deduped())
	}
}

// TestCacheEvictsLRU: at the cap the least recently used done answer goes
// first, and a hit counts as a use.
func TestCacheEvictsLRU(t *testing.T) {
	m := NewManager(1, 8, 2)
	defer m.Close()
	a := submitDone(t, m, "a")
	b := submitDone(t, m, "b")
	if j, ok := answered(t, m, "a"); !ok || j != a { // a becomes most recently used
		t.Fatal("a was not answered by its done job")
	}
	c := submitDone(t, m, "c")
	if held, evicted := m.answerStats(); held != 2 || evicted != 1 {
		t.Fatalf("held=%d evicted=%d, want 2/1", held, evicted)
	}
	if _, ok := m.Get(b.ID()); ok {
		t.Fatal("b should have been evicted as LRU")
	}
	if j, ok := answered(t, m, "c"); !ok || j != c {
		t.Fatal("c should be present")
	}
	if j, ok := answered(t, m, "a"); !ok || j != a {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := answered(t, m, "b"); ok {
		t.Fatal("evicted b still answered its key")
	}
}

// TestCacheRefreshExistingKey: a key holds one answer however often it is
// asked, and a re-hit between other submissions keeps it alive.
func TestCacheRefreshExistingKey(t *testing.T) {
	m := NewManager(1, 8, 2)
	defer m.Close()
	a := submitDone(t, m, "a")
	for i := 0; i < 5; i++ {
		if j, ok := answered(t, m, "a"); !ok || j != a {
			t.Fatalf("round %d: a was not answered by its first job", i)
		}
		if i == 0 {
			if held, _ := m.answerStats(); held != 1 {
				t.Fatalf("one key holds %d answers", held)
			}
		}
		submitDone(t, m, fmt.Sprintf("x%d", i))
	}
	if held, evicted := m.answerStats(); held != 2 || evicted != 4 {
		t.Fatalf("held=%d evicted=%d, want 2/4", held, evicted)
	}
}

// TestEvictedAnswerRecomputes: once the job-record cap drops a done
// answer, the same query runs again as a new job.
func TestEvictedAnswerRecomputes(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobs: 2})
	query := func(k int) int {
		t.Helper()
		var resp QueryResponse
		code := doJSON(t, "POST", ts.URL+"/v2/query", QueryRequest{Graph: "g", Task: "select", Algorithm: "degree-discount", K: k}, &resp)
		if code == http.StatusAccepted {
			pollQueryJob(t, ts.URL, resp.JobID)
		}
		return code
	}
	if query(2) != http.StatusAccepted || query(2) != http.StatusOK {
		t.Fatal("k=2 was not computed, then answered")
	}
	query(3)
	query(4) // three records over a cap of two: k=2, least recently used, goes
	before := s.SelectionsRun()
	if code := query(2); code != http.StatusAccepted {
		t.Fatalf("evicted k=2 answered %d, want a new job", code)
	}
	if got := s.SelectionsRun(); got != before+1 {
		t.Fatalf("SelectionsRun %d -> %d, want one more", before, got)
	}
	if st := s.Stats(); st.CacheSize != 2 {
		t.Fatalf("CacheSize = %d, want the cap 2", st.CacheSize)
	}
}

// selectKey builds the production cache key for a one-member v1-style
// select, through the same path prepareQuery uses.
func selectKey(graph, alg string, k int, o Options) string {
	q := QueryRequest{Graph: graph, Task: "select", Algorithm: alg, K: k, Options: o}.Query()
	return queryKey(graph, q, 0)
}

// TestFingerprintStability pins the canonicalization contract the cache
// key depends on — via the production queryKey/Query.Fingerprint path:
// defaults resolve before hashing, irrelevant fields are excluded, and
// every relevant field separates keys.
func TestFingerprintStability(t *testing.T) {
	zero := selectKey("g", "easyim", 10, Options{})
	explicit := selectKey("g", "easyim", 10, Options{
		Model: "ic", PathLength: 3, Lambda: 1, Epsilon: 0.1, MCRuns: 10000, Seed: 1,
	})
	if zero != explicit {
		t.Fatalf("zero options %q != explicit defaults %q", zero, explicit)
	}
	if selectKey("g", "easyim", 10, Options{Workers: 8}) != zero {
		t.Fatal("Workers must not affect the fingerprint")
	}
	// Opinion-aware algorithms default to the OI model, so the same zero
	// Options must fingerprint differently under osim.
	if selectKey("g", "osim", 10, Options{}) == zero {
		t.Fatal("algorithm must separate fingerprints")
	}
	// The rebind generation separates keys and leaves the graph prefix
	// as it was.
	genKey := queryKey("g", QueryRequest{Graph: "g", Task: "select", Algorithm: "easyim", K: 10}.Query(), 3)
	if genKey == zero || !strings.HasPrefix(genKey, "graph=g;") {
		t.Fatalf("generation-fenced key %q", genKey)
	}
	variants := []string{
		selectKey("h", "easyim", 10, Options{}),
		selectKey("g", "easyim", 11, Options{}),
		selectKey("g", "easyim", 10, Options{Seed: 2}),
		selectKey("g", "easyim", 10, Options{MCRuns: 500}),
		selectKey("g", "easyim", 10, Options{Model: "lt"}),
		selectKey("g", "easyim", 10, Options{PathLength: 4}),
	}
	seen := map[string]int{zero: -1}
	for i, fp := range variants {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variant %d collides with %d: %q", i, prev, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintMatchesLibrary ensures the production cache key and the
// library Query.Fingerprint produce identical canonical strings for a
// single-k select, so out-of-process callers can precompute keys with
// the public API — and so v1 and v2 requests share entries.
func TestFingerprintMatchesLibrary(t *testing.T) {
	o := Options{Model: "oi-ic", Lambda: 2, MCRuns: 300, Seed: 9}
	libFP := holisticim.Query{Algorithm: holisticim.AlgOSIM, K: 5, Options: holisticim.Options{
		Model: "oi-ic", Lambda: 2, MCRuns: 300, Seed: 9,
	}}.Fingerprint()
	want := fmt.Sprintf("graph=g;%s", libFP)
	if got := selectKey("g", "osim", 5, o); got != want {
		t.Fatalf("key %q != %q", got, want)
	}
	// The batch form extends the same canonical family without colliding
	// with any single-k key.
	batch := queryKey("g", QueryRequest{Graph: "g", Task: "select", Algorithm: "osim",
		Ks: []int{5, 10}, Options: o}.Query(), 0)
	if batch == want || !strings.HasPrefix(batch, "graph=g;") {
		t.Fatalf("batch key %q", batch)
	}
}
