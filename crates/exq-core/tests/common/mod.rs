//! Helpers shared by the integration-test binaries that speak to a server
//! over a raw socket (`mod common;`).

use exq_core::codec::{Message, FRAME_EXTRA_LEN, FRAME_HEADER_LEN};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;

/// Reads one whole frame (header + framing fields + payload) off a raw
/// socket and returns its bytes, undecoded.
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let (_, payload_len) = Message::parse_header(&header)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let mut frame = header.to_vec();
    frame.resize(FRAME_HEADER_LEN + FRAME_EXTRA_LEN + payload_len, 0);
    stream.read_exact(&mut frame[FRAME_HEADER_LEN..])?;
    Ok(frame)
}
