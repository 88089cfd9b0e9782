//! Save/load round trips: a hosted database persisted to bytes and restored
//! must answer queries identically, and updates must survive persistence.

use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{OutsourceConfig, Outsourcer};
use exq_core::{Client, Server};
use exq_xml::Document;

fn hosted() -> (Client, Server, Document) {
    let doc = Document::parse(
        r#"<hospital>
            <patient><pname>Betty</pname><SSN>763895</SSN><age>35</age>
              <insurance><policy coverage="1000000">34221</policy></insurance></patient>
            <patient><pname>Matt</pname><SSN>276543</SSN><age>40</age>
              <insurance><policy coverage="5000">78543</policy></insurance></patient>
           </hospital>"#,
    )
    .unwrap();
    let cs = vec![
        SecurityConstraint::parse("//insurance").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap(),
        SecurityConstraint::parse("//patient:(/pname, /age)").unwrap(),
    ];
    let (c, s) = Outsourcer::new(OutsourceConfig::default())
        .outsource(&doc, &cs, SchemeKind::Opt, 31)
        .unwrap()
        .split();
    (c, s, doc)
}

const QUERIES: &[&str] = &[
    "//patient",
    "//patient[pname = 'Betty']/SSN",
    "//patient[.//policy/@coverage >= 10000]/SSN",
    "//insurance//policy",
    "//patient[age = 40]/pname",
    "//pname",
];

#[test]
fn server_roundtrip_answers_identically() {
    let (client, server, _) = hosted();
    let bytes = server.save_bytes().unwrap();
    let restored = Server::load_bytes(&bytes).unwrap();
    for q in QUERIES {
        let a = client.query(&server, q).unwrap().results;
        let b = client.query(&restored, q).unwrap().results;
        assert_eq!(a, b, "mismatch after server reload for {q}");
    }
}

#[test]
fn client_roundtrip_answers_identically() {
    let (client, server, _) = hosted();
    let bytes = client.save_bytes();
    let restored = Client::load_bytes(&bytes).unwrap();
    for q in QUERIES {
        let a = client.query(&server, q).unwrap().results;
        let b = restored.query(&server, q).unwrap().results;
        assert_eq!(a, b, "mismatch after client reload for {q}");
    }
}

#[test]
fn both_roundtrip_through_files() {
    let (client, server, _) = hosted();
    let dir = std::env::temp_dir().join(format!("exq-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spath = dir.join("server.exq");
    let cpath = dir.join("client.exq");
    server.save(&spath).unwrap();
    client.save(&cpath).unwrap();
    let server2 = Server::load(&spath).unwrap();
    let client2 = Client::load(&cpath).unwrap();
    for q in QUERIES {
        let a = client.query(&server, q).unwrap().results;
        let b = client2.query(&server2, q).unwrap().results;
        assert_eq!(a, b);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn updates_survive_persistence() {
    let (mut client, mut server, _) = hosted();
    client
        .insert(
            &mut server,
            "/hospital",
            "<patient><pname>Zoe</pname><SSN>112233</SSN><age>29</age></patient>",
            5,
        )
        .unwrap();
    client.delete(&mut server, "//patient[age = 40]").unwrap();

    let server2 = Server::load_bytes(&server.save_bytes().unwrap()).unwrap();
    let client2 = Client::load_bytes(&client.save_bytes()).unwrap();

    let out = client2.query(&server2, "//patient/pname").unwrap();
    assert_eq!(out.results.len(), 2);
    let out = client2
        .query(&server2, "//patient[pname = 'Zoe']/age")
        .unwrap();
    assert_eq!(out.results, ["<age>29</age>"]);
    let out = client2.query(&server2, "//patient[age = 40]").unwrap();
    assert!(out.results.is_empty());
}

#[test]
fn aggregates_survive_persistence() {
    use exq_core::aggregate::Aggregate;
    let (client, server, _) = hosted();
    let server2 = Server::load_bytes(&server.save_bytes().unwrap()).unwrap();
    let client2 = Client::load_bytes(&client.save_bytes()).unwrap();
    let max = client2
        .aggregate(&server2, "//policy/@coverage", Aggregate::Max)
        .unwrap();
    assert_eq!(max.value.as_deref(), Some("1000000"));
}

#[test]
fn corrupted_files_rejected() {
    let (client, server, _) = hosted();
    let mut s = server.save_bytes().unwrap();
    s[0] ^= 0xFF;
    assert!(Server::load_bytes(&s).is_err());
    let mut c = client.save_bytes();
    c[0] ^= 0xFF;
    assert!(Client::load_bytes(&c).is_err());
    // Truncation.
    let s = server.save_bytes().unwrap();
    assert!(Server::load_bytes(&s[..s.len() / 2]).is_err());
    assert!(Server::load_bytes(&[]).is_err());
    // The pre-checksum formats (magic ending `1`) carried no CRC to verify;
    // they are refused by magic, with or without a checksum appended.
    let v1 = |bytes: &[u8]| [&bytes[..5], b"1", &bytes[6..]].concat();
    for body in [v1(&s), v1(&s[..s.len() - 4])] {
        let err = Server::load_bytes(&body).unwrap_err();
        assert!(matches!(err, exq_core::CoreError::Persist(_)), "{err:?}");
    }
    let c = client.save_bytes();
    for body in [v1(&c), v1(&c[..c.len() - 4])] {
        let err = Client::load_bytes(&body).unwrap_err();
        assert!(matches!(err, exq_core::CoreError::Persist(_)), "{err:?}");
    }
}

/// `bytes`, a state file, relabelled as `version` of its magic with its
/// checksum resealed.
fn as_version(bytes: &[u8], version: u8) -> Vec<u8> {
    let body = [&bytes[..5], &[version], &bytes[6..bytes.len() - 4]].concat();
    let crc = exq_core::codec::crc32(&[&body]);
    [body, crc.to_le_bytes().to_vec()].concat()
}

/// A refusal by a typed error that names the version.
fn assert_refused<T>(refused: Result<T, exq_core::CoreError>, version: u8) {
    match refused {
        Err(exq_core::CoreError::Persist(why)) => {
            assert!(
                why.contains(&format!("version {}", version as char)),
                "{why}"
            )
        }
        Err(other) => panic!("version {} gave {other:?}", version as char),
        Ok(_) => panic!("version {} loaded", version as char),
    }
}

/// Version-2 artifacts predate position-keyed OPE coins: their value
/// indexes no longer match a client's ranges. Version-3 client files
/// predate the one byte codec: their lengths and counts are fixed-width.
/// With an intact checksum they are still refused, by a typed error that
/// names the version.
#[test]
fn version_two_artifacts_are_refused() {
    let (client, server, _) = hosted();
    let (s, c) = (server.save_bytes().unwrap(), client.save_bytes());
    assert_refused(Server::load_bytes(&as_version(&s, b'2')), b'2');
    for v in [b'2', b'3'] {
        assert_refused(Client::load_bytes(&as_version(&c, v)), v);
    }
}

/// Version-3 server artifacts predate RFC 8439 block tags: their blocks
/// would load and then fail every tag a client checks. Version-4 ones
/// predate the one byte codec and the one image, version-5 ones hold an
/// element for each block in their visible text instead of the blocks'
/// offsets, and version-6 ones hold each visible node's interval beside
/// the text. With an intact checksum they are refused, by a typed error
/// that names the version.
#[test]
fn version_three_server_artifacts_are_refused() {
    let (client, server, _) = hosted();
    let bytes = server.save_bytes().unwrap();
    for v in [b'3', b'4', b'5', b'6'] {
        assert_refused(Server::load_bytes(&as_version(&bytes, v)), v);
    }
    assert!(client.save_bytes().starts_with(b"EXQCL4"));
}

/// A version-1 manifest names a state file per database in fixed-width
/// fields. It is refused by a typed error that names the version, and,
/// as it holds no key, does not ask to encrypt again.
#[test]
fn version_one_manifests_are_refused() {
    let mut manifest = exq_core::tenant::Manifest::new("ward-a");
    let entry = exq_core::tenant::DbEntry {
        key_fingerprint: 7,
        max_inflight: 4,
    };
    manifest.dbs.insert("ward-a".into(), entry);
    let bytes = manifest.to_bytes();
    assert!(bytes.starts_with(b"EXQMF2"));
    assert_eq!(
        exq_core::tenant::Manifest::from_bytes(&bytes).unwrap(),
        manifest
    );
    let refused = exq_core::tenant::Manifest::from_bytes(&as_version(&bytes, b'1'));
    if let Err(exq_core::CoreError::Persist(why)) = &refused {
        assert!(!why.contains("encrypt"), "{why}");
    }
    assert_refused(refused, b'1');
}

#[test]
fn state_files_do_not_leak_plaintext() {
    let (client, server, _) = hosted();
    let bytes = server.save_bytes().unwrap();
    let as_text = String::from_utf8_lossy(&bytes);
    // Node-type-protected values must not appear in the server state file.
    for secret in ["34221", "78543", "1000000"] {
        assert!(!as_text.contains(secret), "server file leaks {secret}");
    }
    // The client file may contain categorical codec values (it is the
    // owner's private state) — but it must contain the master key material,
    // so sanity-check the magic instead.
    let cbytes = client.save_bytes();
    assert!(cbytes.starts_with(b"EXQCL4"));
    assert!(bytes.starts_with(b"EXQSV7"));
}

#[test]
fn bit_flips_anywhere_are_rejected() {
    // The trailing checksum must catch corruption at *any* byte, not just
    // in the magic — sample a spread of positions (plus the checksum
    // itself) across both artifacts.
    let (client, server, _) = hosted();
    for bytes in [server.save_bytes().unwrap(), client.save_bytes()] {
        let is_server = bytes.starts_with(b"EXQSV7");
        let step = (bytes.len() / 64).max(1);
        for pos in (0..bytes.len()).step_by(step) {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            let rejected = if is_server {
                Server::load_bytes(&flipped).is_err()
            } else {
                Client::load_bytes(&flipped).is_err()
            };
            assert!(rejected, "bit flip at byte {pos} went undetected");
        }
    }
}

#[test]
fn truncations_are_rejected_cleanly() {
    let (_, server, _) = hosted();
    let bytes = server.save_bytes().unwrap();
    for keep in [0, 3, 6, 9, bytes.len() - 5, bytes.len() - 1] {
        let err = Server::load_bytes(&bytes[..keep]).unwrap_err();
        assert!(
            matches!(err, exq_core::CoreError::Persist(_)),
            "truncation to {keep} bytes: got {err:?}"
        );
    }
}

#[test]
fn save_is_atomic_and_durable() {
    let dir = std::env::temp_dir().join(format!("exq_persist_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("server.exq");
    let (_, server, _) = hosted();
    server.save(&path).unwrap();
    let loaded = Server::load(&path).unwrap();
    assert_eq!(loaded.save_bytes().unwrap(), server.save_bytes().unwrap());
    // Overwriting in place must go through the rename path (no temp file
    // left behind) and leave a loadable artifact.
    server.save(&path).unwrap();
    assert!(Server::load(&path).is_ok());
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
