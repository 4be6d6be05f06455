package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// TestSubmitDropsFrameBufferAfterEarlyReply is the other half: a server that
// answers 503 without reading the body leaves net/http still writing the
// frame when Do returns, so that buffer must not be in the pool for the next
// Submit to overwrite. Two collections empty the pool of what earlier tests
// left there; the Submit that follows the refused one reuses whatever the
// pool holds, which under -race is where a buffer pooled too early shows as
// a write racing the transport's read.
func TestSubmitDropsFrameBufferAfterEarlyReply(t *testing.T) {
	early := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer early.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":1}`)
	}))
	defer ok.Close()
	data := make([]int32, 1<<20)
	for attempt := 0; attempt < 8; attempt++ {
		runtime.GC()
		runtime.GC()
		if _, err := New(early.URL, WithBinary()).Submit(context.Background(), api.JobRequest{Algorithm: "scan", Data: data}); err == nil {
			t.Fatal("Submit to a server answering 503 returned no error")
		}
		buf := getBuf()
		pooled := buf.Cap() >= 4*len(data)
		putBuf(buf)
		if pooled {
			t.Fatalf("attempt %d: the frame buffer of a Submit refused before its body was read is back in the pool", attempt)
		}
		if _, err := New(ok.URL, WithBinary()).Submit(context.Background(), api.JobRequest{Algorithm: "scan", Data: data}); err != nil {
			t.Fatal(err)
		}
	}
}
