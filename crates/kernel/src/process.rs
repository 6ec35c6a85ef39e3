//! Helpers for writing TABS processes (receive → dispatch → reply loops).
//!
//! §2.1.1: "Servers that never wait while processing an operation can be
//! organized as a loop that receives a request message, dispatches to
//! execute the operation, and sends a response message." System processes
//! (TM, RM, CM, NS) all follow this shape; data servers, which *do* wait,
//! serve their port instead ([`crate::port::ReceiveRight::serve`]).

use crate::msg::Message;
use crate::port::{Kernel, PortClass, ReceiveRight, RecvError, SendRight};

/// Runs a standard request loop on `port` inside a spawned process.
///
/// The handler receives each message; if it returns a reply body and the
/// message carried a reply port, the reply is sent back automatically.
/// The loop exits when the kernel shuts down.
pub fn spawn_server<F>(kernel: &Kernel, name: &str, port: ReceiveRight, mut handler: F)
where
    F: FnMut(&Message) -> Option<Message> + Send + 'static,
{
    kernel.spawn(name, move || loop {
        match port.recv() {
            Ok(msg) => {
                let reply_body = handler(&msg);
                if let (Some(reply), Some(r)) = (reply_body, msg.reply.as_ref()) {
                    // Replies to a dead client are dropped silently, as in
                    // Accent: the client may have timed out and gone away.
                    let _ = r.send_unmetered(reply);
                }
            }
            Err(RecvError::ShutDown) => return,
            Err(RecvError::Timeout) => unreachable!("recv() does not time out"),
        }
    });
}

/// Performs a metered request/response exchange against a system port.
///
/// Both the request and the reply are counted as local messages (the
/// paper's small/large/pointer classes). Data-server calls go through the
/// RPC layer in `tabs-proto` instead, which counts the whole exchange as a
/// single Data-Server-Call primitive.
pub fn call_system(
    kernel: &Kernel,
    target: &SendRight,
    msg: Message,
    timeout: std::time::Duration,
) -> Result<Message, RecvError> {
    let (reply_tx, reply_rx) = kernel.allocate_port(PortClass::Reply);
    let msg = msg.with_reply(reply_tx);
    if target.send(msg).is_err() {
        return Err(RecvError::ShutDown);
    }
    let reply = reply_rx.recv_timeout(timeout)?;
    // Count the reply's class as well: it is a real local message.
    kernel.perf().record(reply.class());
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::perfctr::PrimitiveOp;
    use std::time::Duration;

    #[test]
    fn spawn_server_replies() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        spawn_server(&k, "doubler", rx, |m| {
            Some(Message::new(m.op, m.body.iter().map(|b| b * 2).collect()))
        });
        let reply =
            call_system(&k, &tx, Message::new(1, vec![3, 4]), Duration::from_secs(1)).unwrap();
        assert_eq!(reply.body, vec![6, 8]);
        k.shutdown();
        k.join_all();
    }

    #[test]
    fn call_system_counts_both_directions() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        spawn_server(&k, "echo", rx, |m| Some(Message::new(m.op, m.body.clone())));
        let before = k.perf().snapshot();
        call_system(&k, &tx, Message::new(1, vec![0; 10]), Duration::from_secs(1)).unwrap();
        let delta = k.perf().snapshot().since(&before);
        assert_eq!(delta.get(PrimitiveOp::SmallContiguousMessage), 2);
        k.shutdown();
        k.join_all();
    }

    #[test]
    fn call_system_times_out_without_server() {
        let k = Kernel::new(NodeId(1));
        let (tx, _rx) = k.allocate_port(PortClass::System);
        let r = call_system(&k, &tx, Message::new(1, vec![]), Duration::from_millis(20));
        assert_eq!(r.unwrap_err(), RecvError::Timeout);
    }

    #[test]
    fn call_system_to_dead_port_fails_fast() {
        let k = Kernel::new(NodeId(1));
        let (tx, rx) = k.allocate_port(PortClass::System);
        drop(rx);
        let r = call_system(&k, &tx, Message::new(1, vec![]), Duration::from_secs(5));
        assert_eq!(r.unwrap_err(), RecvError::ShutDown);
    }
}
