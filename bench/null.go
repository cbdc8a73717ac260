package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
)

// The null server answers every request with a fixed answer-sized body and
// does no other work. Every time metric is measured against it: it runs as
// a process of its own with the same GOMAXPROCS as the servers under test,
// receives the same request bytes from a generator of its own, and is
// driven in slices that alternate with the workload's, so both see the same
// state of the shared host. A ratio of the two cancels the host's drift and
// keeps everything the servers under test do beyond a bare HTTP exchange.
var nullAnswer = bytes.Repeat([]byte("0"), 1024)

func nullHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // the body is read only to pay for it
		w.Header().Set("Content-Type", "application/json")
		w.Write(nullAnswer) //nolint:errcheck // a failed write shows as a client error
	})
}

// serveNull runs the null server on addr until SIGTERM or an interrupt.
func serveNull(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: nullHandler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		hs.Close() //nolint:errcheck // Serve returns ErrServerClosed
	}()
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// startNullInProcess serves the null server from this process, for the
// in-process smoke runs.
func startNullInProcess() (*deployment, error) {
	url, stop, err := serveLoopback(nullHandler())
	if err != nil {
		return nil, err
	}
	return &deployment{target: url, stop: stop}, nil
}
