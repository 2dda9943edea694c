package mpi

import (
	"testing"
	"time"

	obscomm "repro/internal/obs/comm"
)

// TestCommAccountingEndToEnd drives p2p (blocking and nonblocking, Wait and
// Test completion) plus collectives with comm accounting on, and checks the
// merged matrix balances: every sent message is delivered, phases are
// attributed from the sender, and latency fields are sane.
func TestCommAccountingEndToEnd(t *testing.T) {
	tracker := obscomm.NewTracker()
	err := RunWith(4, RunOptions{Comm: tracker}, func(c *Comm) error {
		c.CommRank().SetPhase("p2p")
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		// Blocking ring exchange.
		c.Send(next, 1, make([]byte, 100*(c.Rank()+1)))
		c.Recv(prev, 1)
		// Nonblocking: Isend + Irecv completed by Wait.
		r := c.Irecv(prev, 2)
		c.Isend(next, 2, make([]byte, 64)).Wait()
		r.Wait()
		// Nonblocking: Irecv completed by Test polling.
		r = c.Irecv(prev, 3)
		c.Isend(next, 3, make([]byte, 32)).Wait()
		for {
			if _, _, ok := r.Test(); ok {
				break
			}
			time.Sleep(time.Millisecond)
		}
		c.CommRank().SetPhase("collectives")
		Bcast(c, 0, make([]byte, 256))
		AllreduceSumInt64(c, int64(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tracker.Matrix()
	if m.NumRanks != 4 {
		t.Fatalf("NumRanks = %d, want 4", m.NumRanks)
	}
	// Conservation: a clean run delivers everything it sends.
	if lost := m.Unaccounted(); len(lost) != 0 {
		t.Fatalf("clean run has unaccounted traffic: %+v", lost)
	}
	var p2pLinks, collLinks int
	for i := range m.Links {
		l := &m.Links[i]
		switch l.Phase {
		case "p2p":
			p2pLinks++
		case "collectives":
			collLinks++
		default:
			t.Fatalf("link with unattributed phase: %+v", l)
		}
		if l.Msgs == 0 || l.Bytes == 0 {
			t.Fatalf("empty link: %+v", l)
		}
		if l.QueueNS < 0 || l.TransferNS < 0 || l.MaxQueueNS < l.QueueNS/l.Msgs {
			t.Fatalf("latency fields inconsistent: %+v", l)
		}
	}
	// Ring p2p: each rank sends 3 messages to its successor → 4 links.
	if p2pLinks != 4 {
		t.Fatalf("p2p links = %d, want 4 (ring)", p2pLinks)
	}
	// Collective legs route through p2p under the hood: Bcast from 0 plus
	// the Reduce-to-0/Bcast-from-0 of Allreduce must put 0→r and r→0 links
	// in the matrix.
	if collLinks == 0 {
		t.Fatal("collective legs missing from the matrix")
	}
	var zeroOut int
	for i := range m.Links {
		l := &m.Links[i]
		if l.Phase == "collectives" && l.Src == 0 {
			zeroOut++
		}
	}
	if zeroOut != 3 {
		t.Fatalf("root fan-out links = %d, want 3", zeroOut)
	}
	// Samples exist for the fitter.
	if len(m.AllSamples()) == 0 {
		t.Fatal("no regression samples recorded")
	}
}

// TestCommAccountingDisabledIsInvisible runs the same traffic without a
// tracker: nothing panics, and messages carry no stamps (the zero matrix).
func TestCommAccountingDisabledIsInvisible(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.CommRank() != nil {
			t.Error("CommRank must be nil when comm accounting is off")
		}
		if c.FlightRank() != nil {
			t.Error("FlightRank must be nil when the flight recorder is off")
		}
		peer := 1 - c.Rank()
		c.Send(peer, 1, []byte("x"))
		c.Recv(peer, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
