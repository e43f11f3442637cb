//! The `ag_http` web-server service agent and the client used by robots.
//!
//! Serving is briefcase RPC like every other TAX service: `get`/`head`
//! with the path as the argument. A `get` reply carries a body element of
//! the page's exact size, so the virtual network charges the same bytes a
//! real fetch would move; every request also costs a calibrated slice of
//! server CPU (`work_ns`), which is what makes the local-vs-remote
//! comparison of §5 behave like the paper's (processing dominates on a
//! fast LAN).

use tacoma_briefcase::{folders, Briefcase};
use tacoma_core::HostHooks;
use tacoma_core::{arg, command_of, error_reply, ok_reply, ServiceAgent, ServiceEnv};

use crate::{ContentType, Site, WebUrl};

/// Default per-request server processing cost: 1.5 ms. Calibrated so the
/// §5 experiment reproduces the paper's ~16 % local advantage on a
/// 100 Mbit LAN (see EXPERIMENTS.md).
pub const DEFAULT_SERVER_WORK_NS: u64 = 1_500_000;

/// The web server: one per hosting machine, holding one [`Site`].
#[derive(Debug)]
pub struct WebServer {
    site: Site,
    work_ns: u64,
}

impl WebServer {
    /// A server for the given site with the default processing cost.
    pub fn new(site: Site) -> Self {
        WebServer {
            site,
            work_ns: DEFAULT_SERVER_WORK_NS,
        }
    }

    /// Overrides the per-request processing cost.
    pub fn with_work_ns(mut self, work_ns: u64) -> Self {
        self.work_ns = work_ns;
        self
    }

    /// The served site.
    pub fn site(&self) -> &Site {
        &self.site
    }
}

impl ServiceAgent for WebServer {
    fn name(&self) -> &str {
        "ag_http"
    }

    fn handle(&self, request: &mut Briefcase, env: &mut ServiceEnv<'_>) -> Briefcase {
        let cmd = command_of(request).to_owned();
        let with_body = match cmd.as_str() {
            "get" => true,
            "head" => false,
            other => return error_reply(format!("ag_http: unknown command {other:?}")),
        };
        let Some(path) = arg(request, 0) else {
            return error_reply(format!("{cmd}: missing path"));
        };

        env.hooks.work_ns(self.work_ns);

        let mut reply = ok_reply();
        match self.site.get(path) {
            Some(doc) if doc.redirect_to.is_some() => {
                reply.set_single("HTTP-STATUS", 301i64);
                reply.set_single(
                    "LOCATION",
                    doc.redirect_to.clone().expect("checked is_some"),
                );
                reply.set_single("CONTENT-TYPE", doc.content_type.as_str());
                reply.set_single("SIZE", 0i64);
            }
            Some(doc) => {
                reply.set_single("HTTP-STATUS", 200i64);
                reply.set_single("CONTENT-TYPE", doc.content_type.as_str());
                reply.set_single("SIZE", doc.size as i64);
                reply.set_single("AGE-DAYS", doc.age_days as i64);
                if with_body {
                    if doc.is_html() {
                        for link in &doc.links {
                            reply.append("LINKS", link.as_str());
                        }
                    }
                    // The body: padding of the document's exact size, so
                    // the network charges real transfer bytes.
                    reply.set_single("BODY", vec![0u8; doc.size as usize]);
                }
            }
            None => {
                reply.set_single("HTTP-STATUS", 404i64);
                reply.set_single("CONTENT-TYPE", ContentType::Html.as_str());
                reply.set_single("SIZE", 0i64);
                if with_body {
                    reply.set_single("BODY", b"<html>404 not found</html>".to_vec());
                }
            }
        }
        reply
    }
}

/// The result of fetching a URL.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchOutcome {
    /// HTTP-ish status: 200, 301, or 404.
    pub status: u16,
    /// Redirect target (301 only).
    pub location: Option<String>,
    /// Declared content type.
    pub content_type: ContentType,
    /// Body size in bytes.
    pub size: u64,
    /// Page age in days.
    pub age_days: u32,
    /// Link targets (HTML `get` only).
    pub links: Vec<String>,
}

impl FetchOutcome {
    /// Whether the document exists.
    pub fn is_ok(&self) -> bool {
        self.status == 200
    }
}

/// A web client over TAX host hooks: fetches by `meet`ing the `ag_http`
/// service at the URL's host. This is the only way the Webbot touches the
/// network, so the same robot binary works stationary (remote meets) and
/// mobile (loopback meets) — the §5 trick.
pub struct WebClient<'a> {
    hooks: &'a mut dyn HostHooks,
}

impl<'a> WebClient<'a> {
    /// A client issuing requests through the given hooks.
    pub fn new(hooks: &'a mut dyn HostHooks) -> Self {
        WebClient { hooks }
    }

    fn request(&mut self, verb: &str, url: &WebUrl) -> Option<FetchOutcome> {
        let mut request = Briefcase::new();
        request.set_single(folders::COMMAND, verb);
        request.append(folders::ARGS, url.path());
        let target = format!("tacoma://{}/ag_http", url.host());
        let reply = self.hooks.meet(&target, &request)?;
        if reply.single_str(folders::STATUS) != Ok("ok") {
            return None;
        }
        let status = reply.single_i64("HTTP-STATUS").ok()? as u16;
        let location = reply.single_str("LOCATION").ok().map(str::to_owned);
        let content_type =
            ContentType::from_str_lossy(reply.single_str("CONTENT-TYPE").unwrap_or(""));
        let size = reply.single_i64("SIZE").unwrap_or(0).max(0) as u64;
        let age_days = reply.single_i64("AGE-DAYS").unwrap_or(0).max(0) as u32;
        let links = reply
            .folder("LINKS")
            .map(|f| {
                f.iter()
                    .filter_map(|e| e.as_str().ok().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default();
        Some(FetchOutcome {
            status,
            location,
            content_type,
            size,
            age_days,
            links,
        })
    }

    /// Fetches a page (body + links). `None` means the server was
    /// unreachable — distinct from a 404, which is a successful fetch of
    /// a missing page.
    pub fn get(&mut self, url: &WebUrl) -> Option<FetchOutcome> {
        self.request("get", url)
    }

    /// Checks a page without transferring the body.
    pub fn head(&mut self, url: &WebUrl) -> Option<FetchOutcome> {
        self.request("head", url)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Document, SiteSpec};
    use tacoma_core::NullHooks;
    use tacoma_core::{Architecture, NativeRegistry};
    use tacoma_core::{Principal, Rights, TrustStore};

    fn serve(site: Site, request: &mut Briefcase) -> Briefcase {
        let server = WebServer::new(site);
        let natives = NativeRegistry::new();
        let _trust = TrustStore::new();
        let mut hooks = NullHooks::default();
        let mut env = ServiceEnv {
            host: "server",
            host_arch: Architecture::simulated(),
            requester: Principal::new("tester").unwrap(),
            rights: Rights::ALL,
            now: tacoma_core::SimTime::ZERO,
            natives: &natives,
            caches: &Default::default(),
            hooks: &mut hooks,
            fuel: 1_000_000,
        };
        server.handle(request, &mut env)
    }

    fn site() -> Site {
        let mut s = Site::empty("server");
        s.add(
            Document::html("/index.html", 500)
                .link("/a.html")
                .link("/dead.html"),
        );
        s.add(Document::html("/a.html", 300));
        s
    }

    #[test]
    fn get_returns_body_and_links() {
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "get");
        req.append(folders::ARGS, "/index.html");
        let reply = serve(site(), &mut req);
        assert_eq!(reply.single_i64("HTTP-STATUS").unwrap(), 200);
        assert_eq!(reply.single_i64("SIZE").unwrap(), 500);
        assert_eq!(reply.element("BODY", 0).unwrap().len(), 500);
        assert_eq!(reply.folder("LINKS").unwrap().len(), 2);
    }

    #[test]
    fn head_has_no_body() {
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "head");
        req.append(folders::ARGS, "/index.html");
        let reply = serve(site(), &mut req);
        assert_eq!(reply.single_i64("HTTP-STATUS").unwrap(), 200);
        assert!(!reply.contains_folder("BODY"));
        assert!(!reply.contains_folder("LINKS"));
    }

    #[test]
    fn missing_page_is_404_not_error() {
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "get");
        req.append(folders::ARGS, "/dead.html");
        let reply = serve(site(), &mut req);
        assert_eq!(reply.single_str(folders::STATUS).unwrap(), "ok");
        assert_eq!(reply.single_i64("HTTP-STATUS").unwrap(), 404);
    }

    #[test]
    fn unknown_command_is_an_error_reply() {
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "delete");
        req.append(folders::ARGS, "/index.html");
        let reply = serve(site(), &mut req);
        assert!(reply
            .single_str(folders::STATUS)
            .unwrap()
            .starts_with("error"));
    }

    #[test]
    fn moved_page_answers_301_with_location() {
        let mut s = Site::empty("server");
        s.add(Document::html("/new.html", 100));
        s.add(Document::moved("/old.html", "/new.html"));
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "get");
        req.append(folders::ARGS, "/old.html");
        let reply = serve(s, &mut req);
        assert_eq!(reply.single_i64("HTTP-STATUS").unwrap(), 301);
        assert_eq!(reply.single_str("LOCATION").unwrap(), "/new.html");
        assert!(!reply.contains_folder("BODY"));
    }

    #[test]
    fn generated_site_is_servable() {
        let s = Site::generate(&SiteSpec::small("server", 20, 9));
        let mut req = Briefcase::new();
        req.set_single(folders::COMMAND, "get");
        req.append(folders::ARGS, "/index.html");
        let reply = serve(s, &mut req);
        assert_eq!(reply.single_i64("HTTP-STATUS").unwrap(), 200);
        assert!(!reply.element("BODY", 0).unwrap().is_empty());
    }
}
