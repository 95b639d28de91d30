package sched

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ssi"
)

// TestHTTPServer drives the full job lifecycle through the HTTP API against
// a live cluster: submit, status, queue listing, cancel, and the admission
// error mapping.
func TestHTTPServer(t *testing.T) {
	c, err := Start(Config{Workers: 2, CapacityBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	srv := httptest.NewServer(NewServer(c.Scheduler()))
	defer srv.Close()

	post := func(body string) (*http.Response, map[string]interface{}) {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]interface{}
		json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		return resp, doc
	}

	// Submit a valid job.
	resp, doc := post(`{"name":"h1","pes":2,"workload":"touch","quota_blocks":8}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", resp.StatusCode, doc)
	}
	id := int(doc["id"].(float64))

	// Poll status until done.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		var jv ssi.JobRow
		json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if jv.State == StateDone {
			break
		}
		if jv.State == StateFailed || jv.State == StateCancelled {
			t.Fatalf("job ended %q: %s", jv.State, jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jv.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Admission rejections map to 422.
	for _, bad := range []string{
		`{"pes":0,"workload":"touch"}`,
		`{"pes":3,"workload":"touch"}`,
		`{"pes":1,"workload":"touch","quota_blocks":999}`,
		`{"pes":1,"workload":"nope"}`,
		`{"pes":1,"workload":"touch","deadline_ms":-5}`,
	} {
		if resp, doc := post(bad); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("spec %s: status %d (%v), want 422", bad, resp.StatusCode, doc)
		}
	}
	// A spec the scheduler cannot parse is a bad request: an unknown
	// consistency mode is one.
	if resp, doc := post(`{"pes":1,"workload":"touch","mode":"cached"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode: status %d (%v), want 400", resp.StatusCode, doc)
	}

	// Unknown job is 404; bad id is 400.
	if resp, _ := http.Get(srv.URL + "/jobs/999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(srv.URL + "/jobs/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", resp.StatusCode)
	}

	// Submit and cancel over HTTP.
	_, doc = post(`{"name":"h2","pes":1,"workload":"touch"}`)
	id2 := int(doc["id"].(float64))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+itoa(id2), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v status %v", err, resp.StatusCode)
	}

	// Queue document carries stats and rows; /metrics carries the gauges.
	resp, err = http.Get(srv.URL + "/queue")
	if err != nil {
		t.Fatal(err)
	}
	var q struct {
		Stats Stats        `json:"stats"`
		Jobs  []ssi.JobRow `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&q)
	resp.Body.Close()
	if q.Stats.Submitted < 2 || len(q.Jobs) < 2 {
		t.Errorf("queue: submitted=%d rows=%d, want >= 2 each", q.Stats.Submitted, len(q.Jobs))
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Workers != 2 {
		t.Errorf("metrics workers = %d, want 2", st.Workers)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestJobViewsAgree holds one job queued behind a gang that fills the
// cluster, then lets it run, then finish. In every state GET /jobs/{id}
// must answer with exactly that job's row in /queue; the one field that may
// move between the two reads is the live one (a queued job's wait, a
// running job's runtime), which must be under way.
func TestJobViewsAgree(t *testing.T) {
	gate := make(chan struct{})
	workloads["hold-test"] = func(p *core.PE, size int) error {
		<-gate
		return workloads["touch"](p, size)
	}
	defer delete(workloads, "hold-test")
	c, err := Start(Config{Workers: 2, CapacityBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	s := c.Scheduler()
	srv := httptest.NewServer(NewServer(s))
	defer srv.Close()
	defer close(gate) // a failed check must not leave Stop waiting on held jobs

	getJSON := func(path string, v interface{}) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	waitFor := func(id int, state string) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			j, err := s.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if j.State == state {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %q, want %q", id, j.State, state)
			}
			time.Sleep(time.Millisecond)
		}
	}
	agree := func(id int, state, live string) {
		t.Helper()
		var job map[string]interface{}
		getJSON("/jobs/"+itoa(id), &job)
		var q struct {
			Jobs []map[string]interface{} `json:"jobs"`
		}
		getJSON("/queue", &q)
		var row map[string]interface{}
		for _, r := range q.Jobs {
			if r["id"] == float64(id) {
				row = r
			}
		}
		if job["state"] != state || row["state"] != state {
			t.Fatalf("job %d: GET says %v, /queue says %v, want %q", id, job["state"], row["state"], state)
		}
		if live != "" {
			first, _ := job[live].(float64)
			second, _ := row[live].(float64)
			if first <= 0 || second < first {
				t.Errorf("%s job: %s = %v, then %v in /queue; want > 0 and not going back", state, live, first, second)
			}
			delete(job, live)
			delete(row, live)
		}
		if !reflect.DeepEqual(job, row) {
			t.Errorf("%s job:\nGET /jobs/%d: %v\n/queue row:   %v", state, id, job, row)
		}
	}

	full, err := s.Submit(JobSpec{Name: "full", PEs: 2, Workload: "hold-test"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(full, StateRunning)
	id, err := s.Submit(JobSpec{
		Name: "held", PEs: 2, Workload: "hold-test", Size: 2, QuotaBlocks: 4,
		Mode: "strong", Priority: 3, DeadlineMS: 60000,
	})
	if err != nil {
		t.Fatal(err)
	}
	agree(id, StateQueued, "wait_ms")
	gate <- struct{}{} // the full gang's two members go on
	gate <- struct{}{}
	waitFor(id, StateRunning)
	agree(id, StateRunning, "run_ms")
	gate <- struct{}{}
	gate <- struct{}{}
	waitFor(id, StateDone)
	agree(id, StateDone, "")
}
