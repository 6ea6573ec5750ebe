//! The derive's attribute surface, through JSON text: internally tagged
//! enums with `rename_all = "snake_case"`, and `default` /
//! `skip_serializing_if` / `flatten` fields. Every expected line is what real serde
//! writes for the same declaration.

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Stamp {
    at: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    who: Option<String>,
    #[serde(default)]
    tags: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Message {
    Hello,
    GcDone {
        dropped: u64,
    },
    Stamped {
        stamp: Stamp,
        #[serde(default, skip_serializing_if = "Option::is_none")]
        note: Option<String>,
    },
}

#[test]
fn tagged_variants_round_trip_with_the_tag_first() {
    let pins = [
        (Message::Hello, r#"{"kind":"hello"}"#),
        (
            Message::GcDone { dropped: 3 },
            r#"{"kind":"gc_done","dropped":3}"#,
        ),
        (
            Message::Stamped {
                stamp: Stamp {
                    at: 7,
                    who: Some("w1".into()),
                    tags: vec!["a".into()],
                },
                note: Some("n".into()),
            },
            r#"{"kind":"stamped","stamp":{"at":7,"who":"w1","tags":["a"]},"note":"n"}"#,
        ),
    ];
    for (message, line) in pins {
        assert_eq!(serde_json::to_string(&message).unwrap(), line);
        assert_eq!(serde_json::from_str::<Message>(line).unwrap(), message);
    }
}

#[test]
fn skip_serializing_if_omits_the_field() {
    let bare = Message::Stamped {
        stamp: Stamp::default(),
        note: None,
    };
    assert_eq!(
        serde_json::to_string(&bare).unwrap(),
        r#"{"kind":"stamped","stamp":{"at":0,"tags":[]}}"#
    );
}

#[test]
fn a_missing_default_key_decodes_as_its_default() {
    let stamp: Stamp = serde_json::from_str(r#"{"at":5}"#).unwrap();
    assert_eq!(
        stamp,
        Stamp {
            at: 5,
            ..Stamp::default()
        }
    );
    // An explicit null is `None` too; unknown keys are ignored.
    let stamp: Stamp = serde_json::from_str(r#"{"at":5,"who":null,"extra":1}"#).unwrap();
    assert_eq!(stamp.who, None);
}

#[test]
fn an_unknown_tag_is_named_in_the_error() {
    let err = serde_json::from_str::<Message>(r#"{"kind":"status"}"#).unwrap_err();
    assert!(err.to_string().contains("unknown kind `status`"), "{err}");
    let err = serde_json::from_str::<Message>(r#"{"dropped":3}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `kind`"), "{err}");
    let err = serde_json::from_str::<Message>(r#"{"kind":3}"#).unwrap_err();
    assert!(err.to_string().contains("`kind` must be a string"), "{err}");
}

#[test]
fn a_missing_required_field_is_an_error() {
    let err = serde_json::from_str::<Message>(r#"{"kind":"gc_done"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `dropped`"), "{err}");
    let err = serde_json::from_str::<Stamp>(r#"{"who":"w1"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `at`"), "{err}");
}

/// A tagged enum flattened under a common field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    seq: u64,
    #[serde(flatten)]
    message: Message,
}

#[test]
fn a_flattened_field_merges_into_its_parent() {
    let message = Message::GcDone { dropped: 3 };
    let envelope = Envelope { seq: 2, message };
    let line = r#"{"seq":2,"kind":"gc_done","dropped":3}"#;
    assert_eq!(serde_json::to_string(&envelope).unwrap(), line);
    // Decoding hands the flattened type the whole map, unknown keys too.
    let extra = r#"{"seq":2,"kind":"gc_done","dropped":3,"x":1}"#;
    assert_eq!(serde_json::from_str::<Envelope>(extra).unwrap(), envelope);
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Port {
    Local,
    Dir(u8),
}

/// Without `tag`, a unit variant is its name and a newtype variant a
/// one-key object; a name in the other shape does not decode.
#[test]
fn untagged_variants_keep_their_shapes() {
    for (port, line) in [(Port::Local, r#""Local""#), (Port::Dir(3), r#"{"Dir":3}"#)] {
        assert_eq!(serde_json::to_string(&port).unwrap(), line);
        assert_eq!(serde_json::from_str::<Port>(line).unwrap(), port);
    }
    for bad in [r#""Dir""#, r#"{"Local":3}"#, r#"{"Dir":3,"x":1}"#, "3"] {
        assert!(serde_json::from_str::<Port>(bad).is_err(), "{bad}");
    }
}
