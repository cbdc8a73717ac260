// Package proctest is a test helper that runs a command's real main in a
// child process: the command's test binary re-executes itself with an
// environment marker, and Main then runs main instead of the tests. A test
// can so check what only the process shows, such as how it answers a
// signal and its exit status.
package proctest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// mainEnv marks a child started by Start: its TestMain runs main.
const mainEnv = "PROCTEST_RUN_MAIN"

// Main is the body of a command's TestMain: in a child started by Start it
// runs main and exits 0 when main returns, otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ExitsOnSIGTERM starts the command with args plus -addr on a free
// loopback port, waits until /healthz answers, holds an idle keep-alive
// connection, sends SIGTERM and requires exit status 0 within three
// seconds. A child still running then is killed and the test fails.
//
// The port is only known to be free before the child binds it, so another
// process may take it in between; a child that exits before serving is
// therefore started once more on a fresh port. The check stays best-effort
// on a busy host.
func ExitsOnSIGTERM(t *testing.T, args ...string) {
	t.Helper()
	c := start(t, args)
	err := waitHealthy(c.addr, c.exited, 10*time.Second)
	if errors.Is(err, errExitedEarly) {
		t.Logf("%v; retrying on a fresh port. output:\n%s", err, c.out.String())
		c = start(t, args)
		err = waitHealthy(c.addr, c.exited, 10*time.Second)
	}
	defer func() {
		select {
		case <-c.exited:
		default:
			c.cmd.Process.Kill() //nolint:errcheck // the child may be exiting already; Wait reaps it either way
			<-c.exited
		}
		if t.Failed() {
			t.Logf("output:\n%s", c.out.String())
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	idle, err := idleKeepAlive(c.addr)
	if err != nil {
		t.Fatalf("keep-alive request: %v", err)
	}
	defer idle.Close()

	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.exited:
		if c.waitErr != nil {
			t.Fatalf("exit after SIGTERM: %v", c.waitErr)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("still running 3s after SIGTERM")
	}
}

// child is a started command whose main runs in a separate process.
type child struct {
	addr string
	cmd  *exec.Cmd
	// One writer for both streams: exec then copies them from a single
	// goroutine, and out is read only after Wait has returned.
	out     bytes.Buffer
	exited  chan struct{} // closed once waitErr is set
	waitErr error
}

// start runs the command with args plus -addr on a free loopback port.
func start(t *testing.T, args []string) *child {
	t.Helper()
	c := &child{addr: freeAddr(t), exited: make(chan struct{})}
	c.cmd = exec.Command(os.Args[0], append(args, "-addr", c.addr)...)
	c.cmd.Env = append(os.Environ(), mainEnv+"=1")
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { c.waitErr = c.cmd.Wait(); close(c.exited) }()
	return c
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// errExitedEarly reports a child that exited before /healthz answered,
// such as one that could not bind its port.
var errExitedEarly = errors.New("exited before serving")

// waitHealthy polls /healthz until it answers with any status, the child
// exits or the timeout passes. An answer while the child has exited came
// from another process on the port and counts as an early exit.
func waitHealthy(addr string, exited <-chan struct{}, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
		select {
		case <-exited:
			return errExitedEarly
		default:
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz not answering after %v: %v", timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// idleKeepAlive sends one HTTP/1.1 request on a raw connection, reads the
// whole answer and returns the connection, left open and idle.
func idleKeepAlive(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: %s\r\n\r\n", addr); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = fmt.Errorf("server closed the connection instead of keeping it alive")
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}
