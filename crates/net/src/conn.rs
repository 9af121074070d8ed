//! Per-connection I/O: a non-blocking reader/writer pair around one
//! `TcpStream`, each with a bounded high-water mark so socket backpressure
//! composes with the executor's O(buffer) discipline.
//!
//! *Non-blocking* here means the **caller** never blocks on socket I/O:
//! each half owns a thread that does the blocking syscalls, and the caller
//! talks to a bounded queue instead.
//!
//! * Inbound ([`NonBlockingReader`]): the thread reads, decodes frames, and
//!   sends them into a `std::sync::mpsc::sync_channel` (capacity = receive
//!   HWM), whose `recv_timeout` gives connection dispatchers the timed wait
//!   the executor channel deliberately omits. When the consumer lags, the
//!   send blocks, the thread stops issuing reads, the kernel buffer fills,
//!   and the peer's TCP window closes — backpressure all the way to the
//!   sender without any unbounded buffer.
//! * Outbound ([`NonBlockingWriter`]): callers enqueue frames into a
//!   bounded channel (capacity = send HWM) — the executor's own
//!   [`sccg::pipeline::exec::channel`], drained by a thread bridged with
//!   [`sccg::pipeline::exec::block_on`]. A slow peer fills the kernel
//!   buffer, the writer thread blocks in `write`, the channel fills, and
//!   `send` blocks the producer: one stalled connection backs up its own
//!   producer, never the engine pool.

use crate::frame::{encode_frame, Frame, FrameDecoder};
use sccg::pipeline::exec::{block_on, channel, Receiver, Sender};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Outcome of a timed receive from a connection's inbound queue.
#[derive(Debug, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item arrived (or was already buffered).
    Item(T),
    /// Nothing arrived within the timeout; the queue is still open.
    TimedOut,
    /// The queue is closed and fully drained: nothing will ever arrive.
    Closed,
}

/// Inbound half of a connection: a thread reading and decoding frames into
/// a bounded queue. See the [module docs](self) for the backpressure chain.
pub struct NonBlockingReader {
    /// Taken on close: dropping it fails a send parked at the HWM, so the
    /// thread exits.
    frames: Option<mpsc::Receiver<Frame>>,
    /// Clone of the socket, kept to shut the read half down on close.
    socket: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NonBlockingReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NonBlockingReader").finish_non_exhaustive()
    }
}

impl NonBlockingReader {
    /// Spawns the reading thread over `stream` with a queue bounded at
    /// `recv_hwm` frames.
    pub fn spawn(stream: TcpStream, recv_hwm: usize) -> std::io::Result<Self> {
        let socket = stream.try_clone()?;
        let (tx, frames) = mpsc::sync_channel(recv_hwm.max(1));
        let thread = std::thread::Builder::new()
            .name("sccg-net-reader".into())
            .spawn(move || read_loop(stream, tx))?;
        Ok(NonBlockingReader {
            frames: Some(frames),
            socket,
            thread: Some(thread),
        })
    }

    /// Waits up to `timeout` for the next decoded frame. Frames decoded
    /// before the connection ended are still delivered; `Closed` follows
    /// them.
    pub fn recv_timeout(&self, timeout: Duration) -> PopTimeout<Frame> {
        let Some(frames) = &self.frames else {
            return PopTimeout::Closed;
        };
        match frames.recv_timeout(timeout) {
            Ok(frame) => PopTimeout::Item(frame),
            Err(RecvTimeoutError::Timeout) => PopTimeout::TimedOut,
            Err(RecvTimeoutError::Disconnected) => PopTimeout::Closed,
        }
    }

    /// Shuts the socket's read half down and joins the thread. Frames
    /// already decoded are discarded.
    pub fn close(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.frames = None;
        // Unblocks a thread parked in `read`; an already-dead socket is fine.
        let _ = self.socket.shutdown(Shutdown::Read);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NonBlockingReader {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Returning drops the sender, which closes the channel for the consumer.
fn read_loop(mut stream: TcpStream, frames: SyncSender<Frame>) {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break, // EOF, reset, or shutdown by `close`
            Ok(n) => n,
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    if frames.send(frame).is_err() {
                        return; // consumer closed; stop reading entirely
                    }
                }
                Ok(None) => break,
                // Framing errors are unrecoverable: no way to resynchronize
                // on the next boundary, so the connection ends here.
                Err(_) => return,
            }
        }
    }
}

/// Outbound half of a connection: a bounded executor channel drained by a
/// writer thread. See the [module docs](self) for the backpressure chain.
pub struct NonBlockingWriter {
    tx: Option<Sender<Frame>>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl std::fmt::Debug for NonBlockingWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NonBlockingWriter").finish_non_exhaustive()
    }
}

/// The writer thread has exited (socket error or peer reset); the frame was
/// not enqueued and the connection is effectively dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterClosed;

impl std::fmt::Display for WriterClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("connection writer closed")
    }
}

impl std::error::Error for WriterClosed {}

impl NonBlockingWriter {
    /// Spawns the writing thread over `stream` with a send buffer bounded at
    /// `send_hwm` frames.
    pub fn spawn(stream: TcpStream, send_hwm: usize) -> std::io::Result<Self> {
        let (tx, rx) = channel::<Frame>(send_hwm.max(1));
        let thread = std::thread::Builder::new()
            .name("sccg-net-writer".into())
            .spawn(move || write_loop(stream, rx))?;
        Ok(NonBlockingWriter {
            tx: Some(tx),
            thread: Some(thread),
        })
    }

    /// Enqueues a frame, blocking while the send HWM is reached (the
    /// backpressure by which a slow peer stalls only its own producer).
    /// Fails if the writer thread exited (socket error or peer reset).
    pub fn send(&self, frame: Frame) -> Result<(), WriterClosed> {
        match &self.tx {
            Some(tx) => tx.send_blocking(frame).map_err(|_| WriterClosed),
            None => Err(WriterClosed),
        }
    }

    /// Closes the channel, lets the thread drain every buffered frame,
    /// flush, and exit; returns the thread's I/O verdict. This is the
    /// "flush writers" step of a graceful drain.
    pub fn close(mut self) -> std::io::Result<()> {
        self.tx = None; // last sender drops; the channel disconnects
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("writer thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for NonBlockingWriter {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn write_loop(mut stream: TcpStream, rx: Receiver<Frame>) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(64 * 1024);
    // `recv` resolves to `None` only once the channel is both disconnected
    // and drained, so close() naturally flushes everything still buffered.
    while let Some(frame) = block_on(rx.recv()) {
        out.clear();
        encode_frame(frame.kind, &frame.body, &mut out);
        // Coalesce whatever else is already buffered into one write.
        while out.len() < 64 * 1024 {
            match rx.try_recv() {
                Ok(frame) => encode_frame(frame.kind, &frame.body, &mut out),
                Err(_) => break,
            }
        }
        stream.write_all(&out)?;
        if rx.is_empty() {
            stream.flush()?;
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameKind;
    use std::net::TcpListener;

    /// Generous bound on waits that should end at once; it only turns a
    /// hang into a failure, the outcome is decided by frame counts.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// A loopback connection: the peer's end and a reader over ours.
    fn loopback(recv_hwm: usize) -> (TcpStream, NonBlockingReader) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (ours, _) = listener.accept().unwrap();
        (peer, NonBlockingReader::spawn(ours, recv_hwm).unwrap())
    }

    fn frame(index: u8) -> Frame {
        Frame {
            kind: FrameKind::Tile,
            body: vec![index; 3],
        }
    }

    fn write_frames(peer: &mut TcpStream, frames: impl Iterator<Item = Frame>) {
        let mut bytes = Vec::new();
        for frame in frames {
            encode_frame(frame.kind, &frame.body, &mut bytes);
        }
        peer.write_all(&bytes).unwrap();
    }

    #[test]
    fn reader_delivers_frames_in_order_then_closed_after_eof() {
        let (mut peer, reader) = loopback(8);
        write_frames(&mut peer, (0..5).map(frame));
        drop(peer);
        for index in 0..5 {
            assert_eq!(
                reader.recv_timeout(PATIENCE),
                PopTimeout::Item(frame(index))
            );
        }
        assert_eq!(reader.recv_timeout(PATIENCE), PopTimeout::Closed);
        assert_eq!(reader.recv_timeout(PATIENCE), PopTimeout::Closed);
    }

    #[test]
    fn reader_times_out_while_the_peer_is_silent() {
        let (mut peer, reader) = loopback(1);
        assert_eq!(
            reader.recv_timeout(Duration::from_millis(5)),
            PopTimeout::TimedOut
        );
        write_frames(&mut peer, std::iter::once(frame(7)));
        assert_eq!(reader.recv_timeout(PATIENCE), PopTimeout::Item(frame(7)));
        drop(peer);
        assert_eq!(reader.recv_timeout(PATIENCE), PopTimeout::Closed);
    }

    #[test]
    fn close_returns_while_the_reader_is_parked_at_the_hwm() {
        let hwm = 2;
        let (mut peer, reader) = loopback(hwm);
        write_frames(&mut peer, (0..hwm as u8 + 8).map(frame));
        // One frame received proves the thread has the bytes; the rest are
        // more than the HWM holds, so it parks on a send nobody drains.
        assert_eq!(reader.recv_timeout(PATIENCE), PopTimeout::Item(frame(0)));
        reader.close();
    }
}
