//! The JSON writer and parser agree with each other.

use ghba_benchmark::json::Json;

#[test]
fn values_round_trip_through_text() {
    let doc = Json::obj([
        ("name", Json::str("a \"quoted\" \\ path\n")),
        ("whole", 1000.0.into()),
        ("digits", 1.2034567891234.into()),
        ("tiny", 1.5e-7.into()),
        ("flag", true.into()),
        ("nothing", Json::Null),
        (
            "rows",
            Json::Arr(vec![Json::obj([("n", 5u64.into())]), Json::Arr(vec![])]),
        ),
    ]);
    assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
}

#[test]
fn whole_numbers_print_without_a_fraction() {
    assert_eq!(Json::from(1000u64).to_string(), "1000");
    assert_eq!(Json::from(0.25).to_string(), "0.25");
    assert_eq!(Json::Num(f64::NAN).to_string(), "null");
}

#[test]
fn malformed_text_is_an_error_not_a_panic() {
    for text in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "\"open",
        "nul",
        "1 2",
        "{\"a\":1}x",
    ] {
        assert!(Json::parse(text).is_err(), "{text:?} parsed");
    }
}

#[test]
fn lookups_by_key_and_kind() {
    let doc = Json::parse(r#"{"a": {"b": [1, "two", false]}, "A": 3}"#).unwrap();
    let items = doc
        .get("a")
        .and_then(|a| a.get("b"))
        .and_then(Json::as_array)
        .unwrap();
    assert_eq!(items[0].as_f64(), Some(1.0));
    assert_eq!(items[1].as_str(), Some("two"));
    assert_eq!(items[2].as_bool(), Some(false));
    assert_eq!(doc.get("A").and_then(Json::as_f64), Some(3.0));
    assert!(doc.get("missing").is_none());
}
