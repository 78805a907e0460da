// Package faults is the deterministic fault-injection subsystem: it turns a
// declarative Config — Bernoulli per-link frame drop and CRC-corruption
// rates, scripted one-shot drops ("drop exactly the Nth frame on this
// port"), and link flap schedules ("down at t1, up at t2") — into per-link
// decision state the delivery layers consult at their transmit points.
//
// # Injection points
//
// The fabric owns the wire, so the fabric decides the wire's fate. Two
// layers consult an Injector:
//
//   - internal/topo: every compiled output port (host egress and switch
//     egress) decides at transmission-complete time whether the departing
//     frame is delivered, lost on the cable, or delivered with a corrupted
//     CRC; link flaps mark ports dead, drop their queued frames and divert
//     ECMP routes around the dead path.
//   - internal/fabric: the calibrated back-to-back/ideal two-endpoint path
//     decides at Send time on the source's egress ("host<N>.egress", the
//     same names topo compiles).
//
// A dropped frame vanishes after consuming its serialization time (the
// transmitter cannot know); a corrupted frame flies on and is discarded by
// the next store-and-forward CRC check (switch ingress or destination
// port), consuming wire bandwidth but never reaching the NIC — exactly the
// two failure shapes the RC transport's PSN/ACK-timeout machinery
// (internal/nic) must recover from.
//
// # Determinism
//
// Every link draws from its own rng.Stream derived from the campaign seed
// and the port name ("faults/" + name), and decisions consume exactly one
// draw per departing frame in per-link transmit order. Decisions are
// therefore a pure function of (seed, port name, per-link frame ordinal):
// independent of event interleaving across links, of host parallelism, and
// of whether other links fault at all — serial and parallel runs are
// bit-identical, and a fixed seed pins the whole fault schedule for golden
// tests.
//
// # Validation and the unrouted-port contract
//
// Config.Validate rejects rates outside [0,1] and flap schedules with
// down >= up. Port names are resolved when the network adopts the
// injector (topo.Fabric.InjectFaults): a scripted drop or flap naming a
// port the compiled topology does not have panics with the port named, the
// same contract as topo's attach panics — a fault schedule that silently
// never fires is a test that silently passes.
package faults
