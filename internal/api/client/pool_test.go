package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// TestSubmitReusesLargeFrameBuffer checks that the buffer a 2^20-element
// binary Submit assembled its 4 MiB + 16 B frame in is back in the pool when
// Submit returns, for the next Submit to use. sync.Pool may drop any one Put
// (the race detector makes it drop a quarter of them), hence the attempts: a
// bound below the frame size never keeps the buffer, on any of them.
func TestSubmitReusesLargeFrameBuffer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":1}`)
	}))
	defer ts.Close()
	c := New(ts.URL, WithBinary())
	data := make([]int32, 1<<20)
	for attempt := 0; attempt < 20; attempt++ {
		if _, err := c.Submit(context.Background(), api.JobRequest{Algorithm: "scan", Data: data}); err != nil {
			t.Fatal(err)
		}
		buf := getBuf()
		kept := buf.Cap() >= 4*len(data)
		putBuf(buf)
		if kept {
			return
		}
	}
	t.Fatalf("a %d-element frame's buffer never came back from the pool (bound %d bytes)", len(data), maxPooledBuf)
}
