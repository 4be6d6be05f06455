package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/native"
	"repro/internal/serve"
)

// TestRetentionKeepsUnreadResults pins the retention rule at RetainJobs 1: a
// settled job whose result nobody has read survives later settlements (at
// the commits that evicted the oldest settled job outright, the second one
// evicted it, and its result read answered 404), and once read it goes at
// the next settlement that overtakes it.
func TestRetentionKeepsUnreadResults(t *testing.T) {
	be, err := native.New(native.Config{CPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	pool, err := serve.New(be)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	s, err := New(pool, WithRetainJobs(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	// submit posts a job and returns once watch has filed its settlement.
	submit := func() uint64 {
		t.Helper()
		rec := do(http.MethodPost, "/v1/jobs", `{"algorithm":"sum","data":[1,2,3,4],"strategy":"seq-1cpu"}`)
		var acc JobAccepted
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); rec.Code != http.StatusAccepted || err != nil {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			filed := s.jobs[acc.ID] == nil // evicted already
			for _, j := range s.settled {
				filed = filed || j.id == acc.ID
			}
			s.mu.Unlock()
			if filed {
				return acc.ID
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never settled", acc.ID)
			}
		}
	}
	result := func(id uint64) int {
		return do(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/result", id), "").Code
	}

	unread := submit()
	for i := 0; i < 2; i++ {
		if code := result(submit()); code != http.StatusOK {
			t.Fatalf("result of a just-settled job: %d", code)
		}
	}
	if code := result(unread); code != http.StatusOK {
		t.Fatalf("unread job after two later settlements: %d, want 200", code)
	}
	submit()
	if code := result(unread); code != http.StatusNotFound {
		t.Fatalf("read job overtaken by a later settlement: %d, want 404", code)
	}
}
