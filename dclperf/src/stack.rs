//! Assembling and tearing down the system under test: daemons, a client
//! and its shared context.

use dopencl::{Client, CommandQueue, Context, Daemon, LinkModel, OpenAccess, SimClock};
use gcf::transport::inproc::InprocTransport;
use gcf::transport::tcp::TcpTransport;
use gcf::transport::Transport;
use std::sync::Arc;
use vocl::Platform;

/// Daemons started by the benchmark; dropping the guard stops them.
pub struct Daemons {
    daemons: Vec<Arc<Daemon>>,
    tcp: bool,
}

impl Daemons {
    /// Start one daemon with one device at each of `addresses`.
    pub fn start(transport: &Arc<dyn Transport>, addresses: &[&str]) -> Result<Daemons, String> {
        let tcp = transport.name() == "tcp";
        let mut guard = Daemons { daemons: Vec::new(), tcp };
        for (i, address) in addresses.iter().enumerate() {
            let daemon = Daemon::start(
                format!("node{i}"),
                &Platform::test_platform(1),
                Arc::clone(transport),
                address,
                Arc::new(OpenAccess),
            )
            .map_err(|e| format!("start daemon at {address}: {e}"))?;
            guard.daemons.push(daemon);
        }
        Ok(guard)
    }

    pub fn addresses(&self) -> Vec<String> {
        self.daemons.iter().map(|d| d.address().to_string()).collect()
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for daemon in self.daemons.drain(..) {
            daemon.kill();
            let address = daemon.address().to_string();
            drop(daemon);
            // A TCP accept loop stays blocked in accept(); one connection
            // wakes it, and it exits because the daemon is gone.
            if self.tcp {
                let _ = std::net::TcpStream::connect(address);
            }
        }
    }
}

/// A client connected to every daemon, with one context spanning all their
/// devices and one in-order queue per device.
pub struct Stack {
    pub client: Client,
    pub context: Context,
    pub queues: Vec<CommandQueue>,
    _daemons: Daemons,
}

impl Stack {
    /// One daemon on TCP loopback: the remote-daemon case.
    pub fn tcp() -> Result<Stack, String> {
        Self::start(Arc::new(TcpTransport::new()), &["127.0.0.1:0"])
    }

    /// Two daemons on the in-process transport sharing one context: the
    /// multi-server case without socket costs.
    pub fn inproc_pair() -> Result<Stack, String> {
        Self::start(Arc::new(InprocTransport::new()), &["node0", "node1"])
    }

    fn start(transport: Arc<dyn Transport>, addresses: &[&str]) -> Result<Stack, String> {
        let daemons = Daemons::start(&transport, addresses)?;
        let client = Client::new("dclperf", transport, LinkModel::ideal(), SimClock::new());
        for address in daemons.addresses() {
            client.connect_server(&address).map_err(|e| format!("connect {address}: {e}"))?;
        }
        let devices = client.devices();
        let context = Context::new(&client, &devices).map_err(|e| format!("context: {e}"))?;
        let queues = devices
            .iter()
            .map(|d| context.create_command_queue(d).map_err(|e| format!("queue: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Stack { client, context, queues, _daemons: daemons })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        for server in self.client.servers() {
            let _ = self.client.disconnect_server(server);
        }
    }
}
