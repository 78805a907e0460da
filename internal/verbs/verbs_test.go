package verbs

import (
	"bytes"
	"math"
	"testing"

	"breakband/internal/config"
	"breakband/internal/node"
	"breakband/internal/sim"
	"breakband/internal/simtest"
	"breakband/internal/units"
)

func harness(t *testing.T) (*node.System, *QP, *QP) {
	t.Helper()
	cfg := config.TX2CX4(config.NoiseOff, 1, true)
	sys := node.NewSystem(cfg, 2)
	c0 := Open(sys.Nodes[0], cfg)
	c1 := Open(sys.Nodes[1], cfg)
	q0 := c0.CreateQP(128, 1024)
	q1 := c1.CreateQP(128, 1024)
	Connect(q0, q1)
	return sys, q0, q1
}

// postSend posts wr on q and fails the test if the post is rejected.
func postSend(t *testing.T, q *QP, wr *SendWR) simtest.Step {
	return simtest.Seq(
		func(tk *sim.Task) { q.StartPostSend(tk, wr) },
		func(*sim.Task) {
			if err := q.LastPostSend(); err != nil {
				t.Fatalf("post wrid %d: %v", wr.WRID, err)
			}
		},
	)
}

// awaitWC polls q's receive (recv) or send CQ into wcs until a poll
// returns at least one work completion.
func awaitWC(q *QP, recv bool, wcs []WC) simtest.Step {
	poll := func(tk *sim.Task) {
		if recv {
			q.StartPollRecvCQ(tk, wcs)
		} else {
			q.StartPollSendCQ(tk, wcs)
		}
	}
	return simtest.Seq(poll, simtest.While(func() bool { return q.LastPoll(recv) == 0 }, poll))
}

func postRecv(q *QP, wr RecvWR) simtest.Step {
	return func(tk *sim.Task) { q.StartPostRecv(tk, &wr) }
}

func sleep(d units.Time) simtest.Step {
	return func(tk *sim.Task) { tk.Advance(d) }
}

func TestRDMAWriteInline(t *testing.T) {
	sys, q0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	wcs := make([]WC, 4)
	simtest.Start(sys.K, "test",
		postSend(t, q0, &SendWR{
			WRID:       77,
			Opcode:     WROpRDMAWrite,
			Flags:      SendSignaled | SendInline,
			InlineData: payload,
			RemoteAddr: dst.Base,
		}),
		awaitWC(q0, false, wcs),
		func(*sim.Task) {
			if wcs[0].WRID != 77 || wcs[0].Status != WCSuccess {
				t.Errorf("wc = %+v", wcs[0])
			}
		},
	)
	sys.Run()
	if got := sys.Nodes[1].Mem.Read(dst.Base, 8); !bytes.Equal(got, payload) {
		t.Errorf("remote = %v", got)
	}
}

func TestSendRecv(t *testing.T) {
	sys, q0, q1 := harness(t)
	defer sys.Shutdown()
	rxBuf := sys.Nodes[1].Mem.Alloc("rx", 4096, 64)
	payload := []byte{9, 8, 7}
	var got []byte
	wcs := make([]WC, 1)
	simtest.Start(sys.K, "rx",
		postRecv(q1, RecvWR{WRID: 5, SGE: SGE{Addr: rxBuf.Base, Length: 4096}}),
		awaitWC(q1, true, wcs),
		func(*sim.Task) {
			if wcs[0].WRID != 5 || wcs[0].Opcode != WROpSend {
				t.Errorf("recv wc = %+v", wcs[0])
			}
			got = wcs[0].Data
		},
	)
	simtest.Start(sys.K, "tx",
		sleep(units.Microsecond),
		postSend(t, q0, &SendWR{WRID: 6, Opcode: WROpSend, Flags: SendSignaled | SendInline, InlineData: payload}),
	)
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Errorf("received %v", got)
	}
}

func TestLargeSendViaSGE(t *testing.T) {
	sys, q0, q1 := harness(t)
	defer sys.Shutdown()
	src := sys.Nodes[0].Mem.Alloc("src", 4096, 64)
	rxBuf := sys.Nodes[1].Mem.Alloc("rx", 4096, 64)
	payload := bytes.Repeat([]byte{0xCD}, 2048)
	sys.Nodes[0].Mem.Write(src.Base, payload)
	var got []byte
	wcs := make([]WC, 1)
	simtest.Start(sys.K, "rx",
		postRecv(q1, RecvWR{WRID: 1, SGE: SGE{Addr: rxBuf.Base, Length: 4096}}),
		awaitWC(q1, true, wcs),
		func(*sim.Task) {
			got = wcs[0].Data
			if wcs[0].ByteLen != 2048 {
				t.Errorf("byte len = %d", wcs[0].ByteLen)
			}
		},
	)
	// Non-inline: the NIC DMA-reads the payload through the SGE.
	simtest.Start(sys.K, "tx",
		sleep(units.Microsecond),
		postSend(t, q0, &SendWR{WRID: 2, Opcode: WROpSend, Flags: SendSignaled, SGE: SGE{Addr: src.Base, Length: 2048}}),
	)
	sys.Run()
	if !bytes.Equal(got, payload) {
		t.Error("large payload corrupted in flight")
	}
}

func TestInlinePostCostsLLPPost(t *testing.T) {
	sys, q0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	var t0 units.Time
	simtest.Start(sys.K, "test",
		func(tk *sim.Task) {
			t0 = tk.Now()
			q0.StartPostSend(tk, &SendWR{
				Opcode: WROpRDMAWrite, Flags: SendSignaled | SendInline,
				InlineData: []byte{1}, RemoteAddr: dst.Base,
			})
		},
		func(tk *sim.Task) {
			if got := (tk.Now() - t0).Ns(); math.Abs(got-config.TabLLPPost) > 1e-9 {
				t.Errorf("inline post cost %.2f ns, want LLP_post %.2f", got, config.TabLLPPost)
			}
		},
	)
	sys.Run()
}

func TestUnsignaledBatchPolling(t *testing.T) {
	sys, q0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	// Three unsignaled then one signaled: one WC retires all four slots,
	// but only the signaled WR is reported (ibverbs semantics).
	var steps []simtest.Step
	for i := 0; i < 4; i++ {
		flags := SendInline
		if i == 3 {
			flags |= SendSignaled
		}
		steps = append(steps, postSend(t, q0, &SendWR{
			WRID: uint64(i), Opcode: WROpRDMAWrite, Flags: flags,
			InlineData: []byte{byte(i)}, RemoteAddr: dst.Base,
		}))
	}
	wcs := make([]WC, 8)
	total := 0
	steps = append(steps,
		simtest.While(func() bool { return q0.Outstanding() > 0 },
			func(tk *sim.Task) { q0.StartPollSendCQ(tk, wcs) },
			func(*sim.Task) { total += q0.LastPoll(false) }),
		func(*sim.Task) {
			if total != 1 {
				t.Errorf("WCs = %d, want 1 (only the signaled WR)", total)
			}
			if wcs[0].WRID != 3 {
				t.Errorf("WC wrid = %d", wcs[0].WRID)
			}
		},
	)
	simtest.Start(sys.K, "test", steps...)
	sys.Run()
}

func TestQPFull(t *testing.T) {
	sys, q0, _ := harness(t)
	defer sys.Shutdown()
	dst := sys.Nodes[1].Mem.Alloc("dst", 64, 8)
	write := func() *SendWR {
		return &SendWR{
			Opcode: WROpRDMAWrite, Flags: SendSignaled | SendInline,
			InlineData: []byte{1}, RemoteAddr: dst.Base,
		}
	}
	var steps []simtest.Step
	for i := 0; i < 128; i++ {
		steps = append(steps, postSend(t, q0, write()))
	}
	steps = append(steps,
		func(tk *sim.Task) { q0.StartPostSend(tk, write()) },
		func(*sim.Task) {
			if err := q0.LastPostSend(); err != ErrQPFull {
				t.Errorf("overfull post: %v", err)
			}
		},
	)
	simtest.Start(sys.K, "test", steps...)
	sys.Run()
}

func TestBadOpcode(t *testing.T) {
	sys, q0, _ := harness(t)
	defer sys.Shutdown()
	simtest.Start(sys.K, "test",
		func(tk *sim.Task) { q0.StartPostSend(tk, &SendWR{Opcode: 42}) },
		func(*sim.Task) {
			if q0.LastPostSend() == nil {
				t.Error("bad opcode accepted")
			}
		},
	)
	sys.Run()
}

func TestBatchedRecvPollPayloadsIndependent(t *testing.T) {
	// Two inline completions drained by a single PollRecvCQ call must
	// return independent payloads: the scratch CQE is reused between
	// decodes, so each WC must carry its own copy.
	sys, q0, q1 := harness(t)
	defer sys.Shutdown()
	rxBuf := sys.Nodes[1].Mem.Alloc("rx", 4096, 64)
	var first, second []byte
	wcs := make([]WC, 2)
	simtest.Start(sys.K, "rx",
		postRecv(q1, RecvWR{WRID: 1, SGE: SGE{Addr: rxBuf.Base, Length: 4096}}),
		postRecv(q1, RecvWR{WRID: 2, SGE: SGE{Addr: rxBuf.Base, Length: 4096}}),
		// Wait until both sends have certainly landed, then drain both
		// completions in one call.
		sleep(100*units.Microsecond),
		func(tk *sim.Task) { q1.StartPollRecvCQ(tk, wcs) },
		func(*sim.Task) {
			if n := q1.LastPoll(true); n != 2 {
				t.Errorf("drained %d completions in one poll, want 2", n)
				return
			}
			first, second = wcs[0].Data, wcs[1].Data
		},
	)
	tx := []simtest.Step{sleep(units.Microsecond)}
	for i, payload := range [][]byte{{1, 1, 1}, {2, 2, 2}} {
		tx = append(tx, postSend(t, q0, &SendWR{
			WRID: uint64(i), Opcode: WROpSend,
			Flags: SendSignaled | SendInline, InlineData: payload,
		}))
	}
	simtest.Start(sys.K, "tx", tx...)
	sys.Run()
	if !bytes.Equal(first, []byte{1, 1, 1}) || !bytes.Equal(second, []byte{2, 2, 2}) {
		t.Errorf("batched poll aliased payloads: first=%v second=%v", first, second)
	}
}
