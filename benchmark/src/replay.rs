//! The per-layer budget: frames captured from a real pair, replayed
//! in-process through each layer's public entry point in hop order, and
//! through the whole-host `TaxSystem` path.
//!
//! All timing is from outside: a span is a timed call into a public
//! function. Spans inside the program are a later change.

use std::path::Path;
use std::sync::Arc;

use tacoma::briefcase::{decode_briefcase_bytes, Briefcase, Bytes};
use tacoma::core::SystemBuilder;
use tacoma::firewall::{AdmissionPolicy, Message};
use tacoma::journal::{Journal, JournalConfig};
use tacoma::security::{Rights, TrustStore};
use tacoma::taxscript::{compile_source, Program, Vm};
use tacoma::transport::{
    Frame, FrameKind, FrameLimits, ListenerConfig, ReactorConfig, ReactorTransport, Transport,
    TransportListener,
};
use tacoma::uri::AgentUri;
use tacoma::vm::{
    code_types, ExecContext, GoDecision, HostHooks, NativeRegistry, VirtualMachine, VmBin, VmScript,
};

use crate::trace::Recorder;
use crate::workload::{Workload, ID_FOLDER};

/// A full traced run replays at least this many hops per path.
pub const MIN_REPLAYED: usize = 2000;

/// A host that lets every `go` and `activate` succeed without shipping:
/// the replay times the VM, not the network behind its hooks.
struct ReplayHooks;

impl HostHooks for ReplayHooks {
    fn display(&mut self, _text: &str) {}

    fn go(&mut self, _uri: &str, _briefcase: &Briefcase) -> GoDecision {
        GoDecision::Moved
    }

    fn spawn(&mut self, _uri: &str, _briefcase: &Briefcase) -> Option<String> {
        None
    }

    fn activate(&mut self, _uri: &str, _briefcase: &Briefcase) -> bool {
        true
    }

    fn meet(&mut self, _uri: &str, _briefcase: &Briefcase) -> Option<Briefcase> {
        None
    }

    fn await_bc(&mut self, _timeout_ms: i64) -> Option<Briefcase> {
        None
    }

    fn now_ms(&mut self) -> i64 {
        0
    }

    fn host_name(&mut self) -> String {
        "home".to_owned()
    }
}

/// A captured frame made into a mid-tour hop: itinerary stops appended
/// (`sink`, then `home`) so the replayed agent ships onward like at any
/// daemon, and a key no journal of this pass has seen.
struct Hop {
    id: String,
    key: String,
    /// The encoded message, as a listener would hand it inward.
    wire: Bytes,
    /// The same message inside a `TAXF` frame, as read off a socket.
    framed: Bytes,
}

fn prepare(captured: &Bytes, vm: &str, pass: usize) -> Result<Hop, String> {
    let mut message = Message::decode_bytes(captured).map_err(|e| e.to_string())?;
    let id = message
        .briefcase
        .single_str(ID_FOLDER)
        .map_err(|e| e.to_string())?
        .to_owned();
    // `home` stays declared after `sink`: admission checks an agent's
    // `activate` targets against the itinerary it still carries.
    for stop in ["sink", "home"] {
        message
            .briefcase
            .append("HOSTS", format!("tacoma://{stop}/{vm}"));
    }
    let key = format!("{}-{pass}", message.hop.as_deref().unwrap_or(&id));
    let parent = message.hop_parent.clone();
    let wire = Bytes::from(message.with_hop(key.clone(), parent).encode());
    let framed = Bytes::from(Frame::new(FrameKind::Briefcase, wire.clone()).encode());
    Ok(Hop {
        id,
        key,
        wire,
        framed,
    })
}

/// A sink listener that acks everything, and a reactor peered with it.
struct Sink {
    listener: TransportListener,
    transport: Arc<ReactorTransport>,
}

impl Sink {
    fn open() -> Result<Sink, String> {
        let listener = TransportListener::bind("127.0.0.1:0", ListenerConfig::trusting("sink"))
            .map_err(|e| format!("sink listener: {e}"))?;
        let mut config = ReactorConfig::default();
        config.connect.local_host = "home".to_owned();
        let transport = Arc::new(ReactorTransport::new(config));
        transport.add_peer("sink", listener.local_addr().to_string());
        Ok(Sink {
            listener,
            transport,
        })
    }

    /// Discards what the sink received so far.
    fn drain(&self) {
        while self.listener.incoming().try_recv().is_ok() {}
    }
}

fn open_journal(dir: &Path, tag: &str, pass: usize) -> Result<Arc<Journal>, String> {
    let dir = dir.join(format!("j-{tag}-{pass}"));
    Journal::open(dir, JournalConfig::default())
        .map(|(journal, _)| Arc::new(journal))
        .map_err(|e| format!("replay journal: {e}"))
}

/// The agent's program, prepared once — what a warm daemon holds.
fn program_of(briefcase: &Briefcase) -> Result<Program, String> {
    let code = briefcase.element("CODE", 0).map_err(|e| e.to_string())?;
    let program = match briefcase.single_str("CODE-TYPE") {
        Ok(code_types::TAXSCRIPT_BYTECODE) => {
            Program::decode(code.data()).map_err(|e| e.to_string())?
        }
        _ => {
            compile_source(code.as_str().map_err(|e| e.to_string())?).map_err(|e| e.to_string())?
        }
    };
    program.prepare();
    Ok(program)
}

/// Replays `captured` through each layer's public entry point, in hop
/// order, and then through the whole-host path, in as many passes as it
/// takes to run `min_replayed` hops on each (every pass on a fresh
/// journal, so no key is a duplicate). Spans land in `rec`.
///
/// # Errors
///
/// Any layer refusing a frame the real pair accepted.
pub fn replay(
    rec: &mut Recorder,
    captured: &[Bytes],
    workload: &Workload,
    dir: &Path,
    min_replayed: usize,
) -> Result<(), String> {
    if captured.is_empty() {
        return Err("traced run captured no frames to replay".to_owned());
    }
    let vm_name = workload.agent.vm();
    let passes = min_replayed.div_ceil(captured.len());
    let sink = Sink::open()?;
    layers(rec, captured, workload, dir, vm_name, passes, &sink)?;
    whole_host(rec, captured, workload, dir, vm_name, passes, &sink)?;
    // Every replayed hop, on both paths, must have shipped onward.
    let shipped = sink.transport.stats().frames_sent;
    let expected = (2 * passes * captured.len()) as u64;
    if shipped < expected {
        return Err(format!(
            "replay shipped {shipped} frames to the sink, expected at least {expected}"
        ));
    }
    Ok(())
}

/// Layer by layer: frame decode → message/briefcase decode → door
/// journal → admission → VM execute (and dispatch alone) → briefcase and
/// message encode → outbound journal → ship to a sink → commits.
fn layers(
    rec: &mut Recorder,
    captured: &[Bytes],
    workload: &Workload,
    dir: &Path,
    vm_name: &str,
    passes: usize,
    sink: &Sink,
) -> Result<(), String> {
    let vm: Box<dyn VirtualMachine> = if vm_name == "vm_script" {
        Box::new(VmScript::new())
    } else {
        Box::new(VmBin::new())
    };
    let trust = TrustStore::new();
    let natives = NativeRegistry::new();
    let ctx = ExecContext::new(&trust, &natives).allow_unsigned();
    let admission = AdmissionPolicy::default();
    let limits = FrameLimits::default();
    let sink_uri: AgentUri = format!("tacoma://sink/{vm_name}")
        .parse()
        .map_err(|e| format!("sink uri: {e}"))?;
    // Every captured frame carries the same code.
    let program = program_of(
        &Message::decode_bytes(&captured[0])
            .map_err(|e| e.to_string())?
            .briefcase,
    )?;
    let mut encode_buf = Vec::new();

    for pass in 0..passes {
        let journal = workload
            .journal
            .then(|| open_journal(dir, "layers", pass))
            .transpose()?;
        for frame in captured {
            let hop = prepare(frame, vm_name, pass)?;
            let root = rec.open("replay.hop", None, &hop.id);

            let (decoded, _) = rec
                .timed("transport.frame_decode", root, || {
                    Frame::decode_bytes(&hop.framed, &limits)
                })
                .map_err(|e| e.to_string())?;
            let message_span = rec.open("firewall.message_decode", Some(root), &hop.id);
            let message = Message::decode_bytes(&decoded.payload).map_err(|e| e.to_string())?;
            rec.close(message_span);
            // The nested payload decode is inside the span above; timed
            // again on its own so the message's self time is known.
            let nested = message.briefcase.wire_bytes();
            rec.timed("briefcase.decode", message_span, || {
                decode_briefcase_bytes(&nested)
            })
            .map_err(|e| e.to_string())?;

            if let Some(journal) = &journal {
                let fresh = rec
                    .timed("journal.door_begin", root, || {
                        journal.begin_inbound_hop(
                            &hop.key,
                            message.hop_parent.as_deref(),
                            &hop.wire,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                if !fresh {
                    return Err(format!("replay journal deduped fresh key {}", hop.key));
                }
            }

            rec.timed("firewall.admission", root, || {
                admission.check(&message.briefcase, Rights::ALL)
            })
            .map_err(|e| e.to_string())?;

            let mut briefcase = message.briefcase.clone();
            let execute_span = rec.open("vm.execute", Some(root), &hop.id);
            vm.execute(&mut briefcase, &mut ReplayHooks, &ctx)
                .map_err(|e| e.to_string())?;
            rec.close(execute_span);
            // The same run on the prepared program alone: execute's
            // child, so launch = execute − dispatch is its self time.
            let mut again = message.briefcase.clone();
            rec.timed("taxscript.dispatch", execute_span, || {
                Vm::new(&program, ReplayHooks).run(&mut again)
            })
            .map_err(|e| e.to_string())?;

            rec.timed("briefcase.encode", root, || briefcase.wire_bytes());
            let out_key = format!("{}-out", hop.key);
            let outbound = Message::transfer(
                "home",
                message.from_principal.clone(),
                sink_uri.clone(),
                briefcase,
                false,
            )
            .with_hop(out_key.clone(), Some(hop.key.clone()));
            encode_buf.clear();
            rec.timed("firewall.message_encode", root, || {
                outbound.encode_into(&mut encode_buf);
            });
            let out_wire = Bytes::from(encode_buf.clone());

            if let Some(journal) = &journal {
                rec.timed("journal.hop_begin", root, || {
                    journal.hop_begin(&out_key, Some(&hop.key), false, "sink", &out_wire)
                })
                .map_err(|e| e.to_string())?;
            }
            rec.timed("transport.ship_ack", root, || {
                sink.transport.send("home", "sink", 0, &out_wire)
            })
            .map_err(|e| e.to_string())?;
            if let Some(journal) = &journal {
                // Both completion records of one hop: the outbound hop
                // at its ack, the inbound hop when its task ends.
                rec.timed("journal.hop_commit", root, || {
                    journal
                        .hop_committed(&out_key)
                        .and_then(|()| journal.hop_committed(&hop.key))
                })
                .map_err(|e| e.to_string())?;
            }
            rec.close(root);
            sink.drain();
        }
    }
    Ok(())
}

/// The whole-host path: one hop through a single-host `TaxSystem` with
/// the workload's journal config and a reactor to the sink — what `taxd`
/// does per frame, minus its loop and the wire in.
fn whole_host(
    rec: &mut Recorder,
    captured: &[Bytes],
    workload: &Workload,
    dir: &Path,
    vm_name: &str,
    passes: usize,
    sink: &Sink,
) -> Result<(), String> {
    for pass in 0..passes {
        let mut system = SystemBuilder::new()
            .host("home")
            .map_err(|e| e.to_string())?
            .transport(Arc::clone(&sink.transport) as Arc<dyn Transport>)
            .build();
        let host = system.host("home").ok_or("whole-host: no home host")?;
        let journal = workload
            .journal
            .then(|| open_journal(dir, "host", pass))
            .transpose()?;
        if let Some(journal) = &journal {
            host.attach_journal(Arc::clone(journal));
        }
        for frame in captured {
            let hop = prepare(frame, vm_name, pass)?;
            let root = rec.open("core.hop_inproc", None, &hop.id);
            if let Some(journal) = &journal {
                rec.timed("core.door_begin", root, || {
                    journal.begin_inbound_hop(&hop.key, None, &hop.wire)
                })
                .map_err(|e| e.to_string())?;
            }
            rec.timed("core.inject", root, || {
                system.inject_wire_bytes("home", &hop.wire)
            })
            .map_err(|e| e.to_string())?;
            rec.timed("core.run_until_quiet", root, || system.run_until_quiet());
            rec.timed("core.pump", root, || system.pump_transport("home"))
                .map_err(|e| e.to_string())?;
            rec.close(root);
            sink.drain();
            // taxd never clears its log either, but nothing timed here
            // depends on its length; clearing bounds the replay's memory.
            host.clear_events();
        }
    }
    Ok(())
}
