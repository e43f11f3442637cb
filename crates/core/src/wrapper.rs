//! The wrapper mechanism of §4.
//!
//! > "Agents can perform only two actions that are observable to the
//! > system: sending a briefcase and receiving a briefcase. […] It is this
//! > interface a wrapper can observe and intercept messages to. […]
//! > Wrappers may be stacked in arbitrary depth by TAX, and may originate
//! > from the local system or be part of the mobile agent itself."
//!
//! Wrappers travel with the agent as *specs* — strings in the briefcase's
//! `WRAPPERS` folder, innermost first — and are re-instantiated at each
//! host by the host's [`WrapperFactory`]. State a wrapper must carry
//! across hops lives in the briefcase itself (folders conventionally named
//! `WRAP:<wrapper>:<what>`), which is exactly how the agent's own state
//! moves.

use std::collections::HashMap;
use std::sync::Arc;

use tacoma_briefcase::Briefcase;
use tacoma_simnet::SimTime;
use tacoma_uri::AgentAddress;

use crate::TaxError;

/// The briefcase folder listing an agent's wrapper specs, innermost first.
pub const WRAPPERS_FOLDER: &str = "WRAPPERS";

/// An intercepted interaction, mutable so wrappers can rewrite targets and
/// payloads.
#[derive(Debug)]
pub enum WrapperEvent<'a> {
    /// The wrapped agent is sending a briefcase.
    Outbound {
        /// Target URI text; wrappers may redirect.
        to: &'a mut String,
        /// The outgoing briefcase; wrappers may annotate.
        briefcase: &'a mut Briefcase,
    },
    /// A briefcase addressed to the wrapped agent is arriving.
    Inbound {
        /// The incoming briefcase.
        briefcase: &'a mut Briefcase,
    },
    /// The wrapped agent is about to relocate (`go`/`spawn`).
    Move {
        /// Destination URI text; wrappers may redirect.
        dest: &'a mut String,
        /// The full agent briefcase that will travel.
        briefcase: &'a mut Briefcase,
    },
}

/// A wrapper's ruling on an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WrapperVerdict {
    /// Pass the (possibly modified) event to the next wrapper / the
    /// system.
    Continue,
    /// Swallow the event: inner wrappers and the agent (inbound) or the
    /// system (outbound) never see it. The wrapper answered or suppressed
    /// it itself, typically via [`WrapperCtx::emit`].
    Absorb,
}

/// What a wrapper can see and do besides mutating the event.
#[derive(Debug)]
pub struct WrapperCtx<'a> {
    /// The wrapped agent's address.
    pub agent: &'a AgentAddress,
    /// The host the agent is currently executing on.
    pub host: &'a str,
    /// Virtual time.
    pub now: SimTime,
    /// Human-readable notes, surfaced as host events.
    pub notes: &'a mut Vec<String>,
    /// Side messages `(target-uri, briefcase)` the kernel sends after the
    /// chain completes (monitor reports, acknowledgements, …). Side
    /// messages bypass the wrapper chain to avoid recursion.
    pub emit: &'a mut Vec<(String, Briefcase)>,
}

/// A stackable interceptor around an agent.
pub trait Wrapper: Send {
    /// The wrapper's name (also its spec prefix).
    fn name(&self) -> &str;

    /// Observes and possibly intercepts one event.
    fn on_event(
        &mut self,
        event: &mut WrapperEvent<'_>,
        ctx: &mut WrapperCtx<'_>,
    ) -> WrapperVerdict;
}

/// The effects of running an event through a wrapper stack.
#[derive(Debug, Default)]
pub struct StackEffects {
    /// Whether some wrapper absorbed the event.
    pub absorbed: bool,
    /// Notes collected from all wrappers.
    pub notes: Vec<String>,
    /// Side messages to send.
    pub emit: Vec<(String, Briefcase)>,
}

/// An agent's instantiated wrapper stack, innermost first.
#[derive(Default)]
pub struct WrapperStack {
    wrappers: Vec<Box<dyn Wrapper>>,
}

impl WrapperStack {
    /// An empty stack (unwrapped agent).
    pub fn new() -> Self {
        WrapperStack::default()
    }

    /// Number of wrappers.
    pub fn len(&self) -> usize {
        self.wrappers.len()
    }

    /// Whether the agent is unwrapped.
    pub fn is_empty(&self) -> bool {
        self.wrappers.is_empty()
    }

    /// Adds a wrapper *around* the current stack (it becomes outermost).
    pub fn wrap(&mut self, wrapper: Box<dyn Wrapper>) {
        self.wrappers.push(wrapper);
    }

    /// Outbound events flow from the agent outwards: innermost wrapper
    /// first.
    pub fn apply_outbound(
        &mut self,
        to: &mut String,
        briefcase: &mut Briefcase,
        agent: &AgentAddress,
        host: &str,
        now: SimTime,
    ) -> StackEffects {
        self.apply(
            Direction::Out,
            |event_to, event_bc| WrapperEvent::Outbound {
                to: event_to,
                briefcase: event_bc,
            },
            to,
            briefcase,
            agent,
            host,
            now,
        )
    }

    /// Inbound events flow from the system inwards: outermost wrapper
    /// first ("any briefcase addressed to the agent is sent to the wrapper
    /// first").
    pub fn apply_inbound(
        &mut self,
        briefcase: &mut Briefcase,
        agent: &AgentAddress,
        host: &str,
        now: SimTime,
    ) -> StackEffects {
        let mut unused = String::new();
        self.apply(
            Direction::In,
            |_, event_bc| WrapperEvent::Inbound {
                briefcase: event_bc,
            },
            &mut unused,
            briefcase,
            agent,
            host,
            now,
        )
    }

    /// Moves flow outwards like sends.
    pub fn apply_move(
        &mut self,
        dest: &mut String,
        briefcase: &mut Briefcase,
        agent: &AgentAddress,
        host: &str,
        now: SimTime,
    ) -> StackEffects {
        self.apply(
            Direction::Out,
            |event_dest, event_bc| WrapperEvent::Move {
                dest: event_dest,
                briefcase: event_bc,
            },
            dest,
            briefcase,
            agent,
            host,
            now,
        )
    }

    #[allow(clippy::too_many_arguments)] // internal dispatcher; the public entry points are narrow
    fn apply<'a>(
        &mut self,
        direction: Direction,
        mut make: impl FnMut(&'a mut String, &'a mut Briefcase) -> WrapperEvent<'a>,
        to: &'a mut String,
        briefcase: &'a mut Briefcase,
        agent: &AgentAddress,
        host: &str,
        now: SimTime,
    ) -> StackEffects {
        let mut effects = StackEffects::default();
        let mut event = make(to, briefcase);
        let order: Vec<usize> = match direction {
            Direction::Out => (0..self.wrappers.len()).collect(),
            Direction::In => (0..self.wrappers.len()).rev().collect(),
        };
        for i in order {
            let wrapper = &mut self.wrappers[i];
            let mut ctx = WrapperCtx {
                agent,
                host,
                now,
                notes: &mut effects.notes,
                emit: &mut effects.emit,
            };
            match wrapper.on_event(&mut event, &mut ctx) {
                WrapperVerdict::Continue => {}
                WrapperVerdict::Absorb => {
                    effects.absorbed = true;
                    break;
                }
            }
        }
        effects
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Out,
    In,
}

impl std::fmt::Debug for WrapperStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.wrappers.iter().map(|w| w.name()).collect();
        write!(f, "WrapperStack{names:?}")
    }
}

type Constructor = Arc<dyn Fn(&str) -> Result<Box<dyn Wrapper>, TaxError> + Send + Sync>;

/// Builds wrapper instances from the specs an agent carries. Each host has
/// one; applications register custom wrappers here ("a framework for
/// automatic generation of layers of wrappers" is the paper's
/// future work — this factory is our version of it).
#[derive(Clone, Default)]
pub struct WrapperFactory {
    constructors: HashMap<String, Constructor>,
}

impl WrapperFactory {
    /// An empty factory (use [`crate::wrappers::standard_factory`] for the
    /// stock wrappers).
    pub fn new() -> Self {
        WrapperFactory::default()
    }

    /// Registers a constructor for specs whose name (the part before the
    /// first `:`) equals `name`. The constructor receives the full spec.
    pub fn register<F>(&mut self, name: impl Into<String>, constructor: F)
    where
        F: Fn(&str) -> Result<Box<dyn Wrapper>, TaxError> + Send + Sync + 'static,
    {
        self.constructors.insert(name.into(), Arc::new(constructor));
    }

    /// Instantiates one wrapper from its spec.
    ///
    /// # Errors
    ///
    /// [`TaxError::BadAgentSpec`] for unknown wrapper names or specs the
    /// constructor rejects.
    pub fn build(&self, spec: &str) -> Result<Box<dyn Wrapper>, TaxError> {
        let name = spec.split(':').next().unwrap_or(spec);
        let constructor = self
            .constructors
            .get(name)
            .ok_or_else(|| TaxError::BadAgentSpec {
                detail: format!("unknown wrapper {name:?} in spec {spec:?}"),
            })?;
        constructor(spec)
    }

    /// Instantiates the full stack an agent's briefcase declares.
    ///
    /// # Errors
    ///
    /// As [`WrapperFactory::build`].
    pub fn build_stack(&self, briefcase: &Briefcase) -> Result<WrapperStack, TaxError> {
        let mut stack = WrapperStack::new();
        if let Some(folder) = briefcase.folder(WRAPPERS_FOLDER) {
            for element in folder {
                let spec = element.as_str().map_err(|_| TaxError::BadAgentSpec {
                    detail: "non-text wrapper spec".to_owned(),
                })?;
                stack.wrap(self.build(spec)?);
            }
        }
        Ok(stack)
    }
}

impl std::fmt::Debug for WrapperFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.constructors.keys().map(String::as_str).collect();
        names.sort_unstable();
        write!(f, "WrapperFactory{names:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacoma_uri::Instance;

    struct Tagger {
        tag: String,
        absorb_inbound: bool,
    }

    impl Wrapper for Tagger {
        fn name(&self) -> &str {
            "tagger"
        }
        fn on_event(
            &mut self,
            event: &mut WrapperEvent<'_>,
            ctx: &mut WrapperCtx<'_>,
        ) -> WrapperVerdict {
            match event {
                WrapperEvent::Outbound { briefcase, .. } | WrapperEvent::Move { briefcase, .. } => {
                    briefcase.append("TAGS", self.tag.as_str());
                    WrapperVerdict::Continue
                }
                WrapperEvent::Inbound { briefcase } => {
                    briefcase.append("TAGS", self.tag.as_str());
                    if self.absorb_inbound {
                        ctx.notes.push(format!("{} absorbed", self.tag));
                        WrapperVerdict::Absorb
                    } else {
                        WrapperVerdict::Continue
                    }
                }
            }
        }
    }

    fn agent() -> AgentAddress {
        AgentAddress::new("p", "a", Instance::from_u64(1))
    }

    fn stack(absorb_outer: bool) -> WrapperStack {
        let mut s = WrapperStack::new();
        s.wrap(Box::new(Tagger {
            tag: "inner".into(),
            absorb_inbound: false,
        }));
        s.wrap(Box::new(Tagger {
            tag: "outer".into(),
            absorb_inbound: absorb_outer,
        }));
        s
    }

    fn tags(bc: &Briefcase) -> Vec<String> {
        bc.folder("TAGS")
            .map(|f| f.iter().map(|e| e.as_str().unwrap().to_owned()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn outbound_runs_inner_to_outer() {
        let mut s = stack(false);
        let mut to = "ag_fs".to_owned();
        let mut bc = Briefcase::new();
        let fx = s.apply_outbound(&mut to, &mut bc, &agent(), "h1", SimTime::ZERO);
        assert!(!fx.absorbed);
        assert_eq!(tags(&bc), ["inner", "outer"]);
    }

    #[test]
    fn inbound_runs_outer_to_inner() {
        let mut s = stack(false);
        let mut bc = Briefcase::new();
        let fx = s.apply_inbound(&mut bc, &agent(), "h1", SimTime::ZERO);
        assert!(!fx.absorbed);
        assert_eq!(tags(&bc), ["outer", "inner"]);
    }

    #[test]
    fn absorb_stops_the_chain() {
        let mut s = stack(true);
        let mut bc = Briefcase::new();
        let fx = s.apply_inbound(&mut bc, &agent(), "h1", SimTime::ZERO);
        assert!(fx.absorbed);
        assert_eq!(
            tags(&bc),
            ["outer"],
            "inner wrapper must not see the absorbed event"
        );
        assert_eq!(fx.notes, ["outer absorbed"]);
    }

    #[test]
    fn factory_builds_declared_stack_in_order() {
        let mut factory = WrapperFactory::new();
        factory.register("tagger", |spec| {
            let tag = spec.split_once(':').map_or("?", |(_, t)| t);
            Ok(Box::new(Tagger {
                tag: tag.to_owned(),
                absorb_inbound: false,
            }))
        });
        let mut bc = Briefcase::new();
        bc.append(WRAPPERS_FOLDER, "tagger:mw");
        bc.append(WRAPPERS_FOLDER, "tagger:rw");
        let mut stack = factory.build_stack(&bc).unwrap();
        assert_eq!(stack.len(), 2);
        let mut to = "x".to_owned();
        let mut out = Briefcase::new();
        stack.apply_outbound(&mut to, &mut out, &agent(), "h1", SimTime::ZERO);
        // Element 0 of WRAPPERS is innermost, so mw tags first.
        assert_eq!(tags(&out), ["mw", "rw"]);
    }

    #[test]
    fn unknown_wrapper_spec_is_an_error() {
        let factory = WrapperFactory::new();
        let mut bc = Briefcase::new();
        bc.append(WRAPPERS_FOLDER, "ghost:x");
        assert!(matches!(
            factory.build_stack(&bc),
            Err(TaxError::BadAgentSpec { .. })
        ));
    }

    #[test]
    fn unwrapped_agent_has_empty_stack() {
        let factory = WrapperFactory::new();
        let stack = factory.build_stack(&Briefcase::new()).unwrap();
        assert!(stack.is_empty());
    }
}
