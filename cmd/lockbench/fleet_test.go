package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"lockin/internal/fleet"
	"lockin/internal/telemetry"
)

// slowHeader delays the response status line, widening the window in
// which the handler of the run-completing POST is still running after
// Done is closed.
type slowHeader struct{ http.ResponseWriter }

func (w slowHeader) WriteHeader(code int) {
	time.Sleep(20 * time.Millisecond)
	w.ResponseWriter.WriteHeader(code)
}

// TestCoordinatorAnswersFinalResult: the worker whose chunk completes
// the run must get the coordinator's response to that POST, not EOF.
// The process exits as soon as serveFleet returns, which the test
// stands in for by closing the server and every connection at once.
func TestCoordinatorAnswersFinalResult(t *testing.T) {
	for i := 0; i < 3; i++ {
		co, err := fleet.New(fleet.Config{
			Job:    fleet.JobSpec{Experiment: "fig10", Seed: 42, Scale: 0.25, Quick: true, Workers: 1},
			Expect: 1, LeaseTTL: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h := co.Handler()
		hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/fleet/v1/result" {
				w = slowHeader{w}
			}
			h.ServeHTTP(w, r)
		})}
		worked := make(chan error, 1)
		go func() {
			worked <- fleet.Work(context.Background(), fleet.WorkerConfig{Addr: "http://" + ln.Addr().String(), Name: "w"})
		}()
		if err := serveFleet(context.Background(), hs, ln, co, telemetry.Discard()); err != nil {
			t.Fatal(err)
		}
		hs.Close()
		if err := <-worked; err != nil {
			t.Fatalf("run %d: worker: %v", i, err)
		}
	}
}
