package ctl_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ctl"
	"repro/internal/leakcheck"
)

// TestCtlClientStallTimesOut pins the operator-tool timeout story: a
// daemon that accepts the connection and then goes silent must cost the
// client its own Timeout, not the 10-second stall the peer is capable
// of — the client sets a deadline on every read, so the error is a
// deadline exceeded, and it arrives fast.
func TestCtlClientStallTimesOut(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	release := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		close(release)
		<-done
	})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		bufio.NewReader(c).ReadString('\n') // take the request, answer nothing
		<-release
	}()

	spec := chaos.Spec{Seed: 7, Stall: 10 * time.Second}
	spec.Prob[chaos.FaultStallRead] = 1
	in := spec.Injector()
	client := &ctl.Client{
		Addr:    ln.Addr().String(),
		Timeout: 100 * time.Millisecond,
		Dial:    in.Dial("ctl", net.Dial),
	}
	start := time.Now()
	_, err = client.Request("status")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Request against a stalled daemon returned nil")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("stalled read should surface a deadline error, got: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("timing out took %v; the client's 100ms deadline should have cut the 10s stall", elapsed)
	}
}

// allocated reports what the runtime charges f in heap bytes.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var sink []byte

// TestCtlClientLyingLengthCostsWhatWasSent is the resource bound on the
// reply header: `ok <n>` is the peer's claim, so a wrong or hostile
// endpoint declaring a terabyte (or 2^62: a negative make, a panic)
// and sending ten bytes must cost a truncation error and about what it
// sent — not an allocation sized by the claim.
func TestCtlClientLyingLengthCostsWhatWasSent(t *testing.T) {
	leakcheck.Check(t)
	// The yardstick is what a 1 MiB buffer costs on this runtime: under
	// the race detector bytes.Buffer.Grow allocates its storage twice.
	oneMiB := allocated(func() {
		var b bytes.Buffer
		b.Grow(1 << 20)
		sink = b.Bytes()
	})
	for _, declared := range []string{"1099511627776", "4611686018427387904"} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			bufio.NewReader(c).ReadString('\n')
			io.WriteString(c, "ok "+declared+"\n0123456789")
		}()
		client := &ctl.Client{Addr: ln.Addr().String(), Timeout: 5 * time.Second}
		var body []byte
		cost := allocated(func() { body, err = client.Request("status") })
		ln.Close()
		<-done
		if err == nil || !strings.Contains(err.Error(), "truncated at 10 of "+declared) {
			t.Fatalf("ok %s + 10 bytes: err = %v, want a truncated-at-10 error", declared, err)
		}
		if string(body) != "0123456789" {
			t.Errorf("body = %q, want the ten bytes that arrived", body)
		}
		if cost >= oneMiB {
			t.Errorf("ok %s cost %d bytes of allocation for a 10-byte reply; want under 1 MiB (%d as this runtime counts)", declared, cost, oneMiB)
		}
	}
}
