//! Parser edge cases: every rejection is line/column-scoped to the
//! offending token and names the supported alternatives.

use cmvrp_scenario::{ArrivalSpec, Baseline, Scenario, ScenarioError};

fn parse_err(text: &str) -> ScenarioError {
    Scenario::parse_file(text).expect_err("scenario must be rejected")
}

const MINIMAL: &str = "[substrate]\nside = 9\n[demand]\nshape = point\ndemand = 5\n";

#[test]
fn minimal_scenario_parses_with_defaults() {
    let sc = Scenario::parse_file(MINIMAL).unwrap();
    assert_eq!(sc.name, None);
    assert_eq!(sc.side(), 9);
    assert_eq!(sc.arrivals, ArrivalSpec::Batch { seed: None });
    assert!(sc.faults.is_empty());
    assert_eq!(sc.report.baselines, vec![Baseline::Becker, Baseline::Gn]);
}

#[test]
fn comments_whitespace_and_quotes_are_tolerated() {
    let text = "# a scenario\nname = \"quoted name\"   # trailing comment\n\n\
                [substrate]   \n  side   =   9\n[demand]\nshape = \"point\"\ndemand = 5\n";
    let sc = Scenario::parse_file(text).unwrap();
    assert_eq!(sc.name.as_deref(), Some("quoted name"));
    assert_eq!(sc.side(), 9);
}

#[test]
fn unknown_section_names_the_supported_set() {
    let e = parse_err("[blob]\nside = 9\n");
    assert_eq!((e.line, e.col), (1, 2));
    assert!(e.msg.contains("unknown section [blob]"), "{e}");
    assert!(
        e.msg
            .contains("[substrate], [demand], [arrivals], [faults], [report]"),
        "{e}"
    );
    assert_eq!(e.to_string(), format!("scenario line 1, col 2: {}", e.msg));
}

#[test]
fn duplicate_section_points_back_at_the_first() {
    let e = parse_err(&format!("{MINIMAL}[demand]\nshape = point\n"));
    assert_eq!((e.line, e.col), (6, 2));
    assert!(e.msg.contains("duplicate section [demand]"), "{e}");
    assert!(e.msg.contains("first defined on line 3"), "{e}");
}

#[test]
fn duplicate_key_points_back_at_the_first() {
    let e = parse_err("[substrate]\nside = 9\nside = 10\n");
    assert_eq!((e.line, e.col), (3, 1));
    assert!(e.msg.contains("duplicate key \"side\""), "{e}");
    assert!(e.msg.contains("first set on line 2"), "{e}");
}

#[test]
fn unterminated_section_header_is_column_scoped() {
    let e = parse_err("  [substrate\nside = 9\n");
    assert_eq!((e.line, e.col), (1, 3));
    assert!(e.msg.contains("missing its `]`"), "{e}");
}

#[test]
fn non_assignment_line_is_rejected() {
    let e = parse_err("[substrate]\nside 9\n");
    assert_eq!((e.line, e.col), (2, 1));
    assert!(e.msg.contains("expected `key = value`"), "{e}");
}

#[test]
fn empty_value_is_rejected_at_the_value_column() {
    let e = parse_err("[substrate]\nside =\n");
    assert_eq!((e.line, e.col), (2, 7));
    assert!(e.msg.contains("\"side\" has an empty value"), "{e}");
}

#[test]
fn non_integer_value_is_scoped_to_the_value() {
    let e = parse_err("[substrate]\nside = nine\n");
    assert_eq!((e.line, e.col), (2, 8));
    assert!(
        e.msg.contains("side = \"nine\" is not an unsigned integer"),
        "{e}"
    );
}

#[test]
fn unknown_key_in_section_names_supported_keys() {
    let e = parse_err("[substrate]\nside = 9\nshade = 3\n[demand]\nshape = point\ndemand = 5\n");
    assert_eq!((e.line, e.col), (3, 1));
    assert!(
        e.msg.contains("unknown key \"shade\" in [substrate]"),
        "{e}"
    );
    assert!(e.msg.contains("supported keys: kind, side"), "{e}");
}

#[test]
fn unknown_top_level_key_is_rejected() {
    let e = parse_err(&format!("title = x\n{MINIMAL}"));
    assert_eq!((e.line, e.col), (1, 1));
    assert!(e.msg.contains("unknown key \"title\""), "{e}");
}

#[test]
fn missing_substrate_and_demand_sections_are_named() {
    let e = parse_err("[demand]\nshape = point\ndemand = 5\n");
    assert!(e.msg.contains("missing [substrate] section"), "{e}");
    let e = parse_err("[substrate]\nside = 9\n");
    assert!(e.msg.contains("missing [demand] section"), "{e}");
}

#[test]
fn missing_side_is_scoped_to_the_substrate_section() {
    let e = parse_err("[substrate]\nkind = grid\n[demand]\nshape = point\ndemand = 5\n");
    assert_eq!(e.line, 1);
    assert!(e.msg.contains("[substrate] needs side"), "{e}");
}

#[test]
fn unknown_substrate_kind_names_the_alternative() {
    let e = parse_err("[substrate]\nkind = torus\nside = 9\n[demand]\nshape = point\ndemand = 5\n");
    assert_eq!((e.line, e.col), (2, 8));
    assert!(
        e.msg
            .contains("unknown substrate kind \"torus\"; supported kinds: grid"),
        "{e}"
    );
}

#[test]
fn unknown_demand_shape_names_the_supported_set() {
    let e = parse_err("[substrate]\nside = 9\n[demand]\nshape = blob\n");
    assert_eq!((e.line, e.col), (4, 9));
    assert!(e.msg.contains("unknown demand shape \"blob\""), "{e}");
    assert!(
        e.msg.contains("point, line, square, uniform, clusters"),
        "{e}"
    );
}

#[test]
fn key_for_another_shape_is_rejected_with_the_shape_scoped_set() {
    // `a` is a real demand key — but only for squares.
    let e = parse_err("[substrate]\nside = 9\n[demand]\nshape = point\ndemand = 5\na = 2\n");
    assert_eq!((e.line, e.col), (6, 1));
    assert!(
        e.msg
            .contains("key \"a\" is not used by demand shape \"point\""),
        "{e}"
    );
    assert!(e.msg.contains("shape \"point\" uses: demand"), "{e}");
}

#[test]
fn missing_required_shape_key_is_named() {
    let e = parse_err("[substrate]\nside = 9\n[demand]\nshape = square\na = 3\n");
    assert!(
        e.msg.contains("demand shape \"square\" needs demand = <n>"),
        "{e}"
    );
}

#[test]
fn unknown_arrivals_mode_names_all_modes() {
    let e = parse_err(&format!("{MINIMAL}[arrivals]\nmode = burst\n"));
    assert_eq!((e.line, e.col), (7, 8));
    assert!(e.msg.contains("unknown arrivals mode \"burst\""), "{e}");
    assert!(
        e.msg.contains(
            "batch, sequential, uniform-rate, diurnal, flash-crowd, moving-hotspot, alternating"
        ),
        "{e}"
    );
}

#[test]
fn mode_specific_keys_are_rejected_for_other_modes() {
    let e = parse_err(&format!("{MINIMAL}[arrivals]\nmode = batch\nwaves = 3\n"));
    assert_eq!((e.line, e.col), (8, 1));
    assert!(
        e.msg
            .contains("key \"waves\" is only used by arrivals mode \"diurnal\""),
        "{e}"
    );
    let e = parse_err(&format!("{MINIMAL}[arrivals]\nat = 30\n"));
    assert!(
        e.msg
            .contains("key \"at\" is only used by arrivals mode \"flash-crowd\""),
        "{e}"
    );
}

#[test]
fn arrivals_defaults_fill_in() {
    let sc = Scenario::parse_file(&format!("{MINIMAL}[arrivals]\nmode = diurnal\n")).unwrap();
    assert_eq!(
        sc.arrivals,
        ArrivalSpec::Diurnal {
            waves: 4,
            seed: None
        }
    );
    let sc = Scenario::parse_file(&format!(
        "{MINIMAL}[arrivals]\nmode = flash-crowd\nseed = 7\n"
    ))
    .unwrap();
    assert_eq!(
        sc.arrivals,
        ArrivalSpec::FlashCrowd {
            at: 50,
            seed: Some(7)
        }
    );
}

#[test]
fn faults_must_be_positive_and_strictly_increasing() {
    let e = parse_err(&format!("{MINIMAL}[faults]\ncrash_at_rounds = 0\n"));
    assert!(e.msg.contains("must be >= 1"), "{e}");
    let e = parse_err(&format!("{MINIMAL}[faults]\ncrash_at_rounds = 5, 5\n"));
    assert!(e.msg.contains("strictly increasing"), "{e}");
    assert!(e.msg.contains("got 5 after 5"), "{e}");
    let e = parse_err(&format!("{MINIMAL}[faults]\ncrash_at_rounds = 3, x\n"));
    assert!(
        e.msg.contains("entry \"x\" is not an unsigned integer"),
        "{e}"
    );
    let sc =
        Scenario::parse_file(&format!("{MINIMAL}[faults]\ncrash_at_rounds = 3, 9, 12\n")).unwrap();
    assert_eq!(sc.faults.crash_at_rounds, vec![3, 9, 12]);
}

#[test]
fn report_baselines_capacity_and_vehicles_parse() {
    let text = format!("{MINIMAL}[report]\nbaselines = gn\ncapacity = 12\nvehicles = auto\n");
    let sc = Scenario::parse_file(&text).unwrap();
    assert_eq!(sc.report.baselines, vec![Baseline::Gn]);
    assert_eq!(sc.report.capacity, Some(12));
    assert_eq!(sc.report.vehicles, None);
    let sc = Scenario::parse_file(&format!("{MINIMAL}[report]\nbaselines = none\n")).unwrap();
    assert!(sc.report.baselines.is_empty());
    let e = parse_err(&format!("{MINIMAL}[report]\nbaselines = becker, optimal\n"));
    assert!(e.msg.contains("unknown baseline \"optimal\""), "{e}");
    assert!(e.msg.contains("becker, gn, none"), "{e}");
}

#[test]
fn hash_comments_need_whitespace_before_them_and_stop_at_quotes() {
    // `#` opens a comment only at the start of a line or after whitespace,
    // and never inside double quotes.
    let text = format!("name = \"a # b\"  # the name\n{MINIMAL}");
    assert_eq!(
        Scenario::parse_file(&text).unwrap().name.as_deref(),
        Some("a # b")
    );
    let text = format!("name = run#1\n{MINIMAL}");
    assert_eq!(
        Scenario::parse_file(&text).unwrap().name.as_deref(),
        Some("run#1")
    );
    let e = parse_err("[substrate]\nside = 9#x\n");
    assert_eq!((e.line, e.col), (2, 8));
    assert!(e.msg.contains("\"9#x\" is not an unsigned integer"), "{e}");
}

#[test]
fn lexer_yields_positions_for_sections_and_pairs() {
    use cmvrp_scenario::parse::{lex, Lexeme};
    let items: Vec<Lexeme> = lex("# c\n  [ demand ]\nshape =  \"point\"\n")
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(
        items,
        vec![
            Lexeme::Section {
                line: 2,
                col: 5,
                name: "demand"
            },
            Lexeme::Pair {
                line: 3,
                col: 1,
                key: "shape",
                vcol: 10,
                val: "point"
            },
        ]
    );
    let e = lex("[]\n").next().unwrap().unwrap_err();
    assert_eq!((e.line, e.col), (1, 1));
}

/// Deterministic byte flips of a full scenario, then garbage built from
/// the grammar's own characters: parsing returns a scenario or a scoped
/// error with a real position, and never panics.
#[test]
fn random_mutations_are_scoped_errors() {
    const FULL: &str = "name = \"quake\" # c\n[substrate]\nkind = grid\nside = 12\n\
                        [demand]\nshape = clusters\nk = 3\njobs = 40\nseed = 2\n\
                        [arrivals]\nmode = diurnal\nwaves = 3\n\
                        [faults]\ncrash_at_rounds = 2, 5\n\
                        [report]\nbaselines = becker, gn\ncapacity = auto\n";
    Scenario::parse_file(FULL).unwrap();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for round in 0..4000 {
        let bytes: Vec<u8> = if round % 2 == 0 {
            let mut bytes = FULL.as_bytes().to_vec();
            for _ in 0..=(rng() % 3) {
                let i = (rng() % bytes.len() as u64) as usize;
                bytes[i] ^= (rng() % 255 + 1) as u8;
            }
            bytes
        } else {
            const PIECES: &[u8] = b"[]=#\"\n ,abcdefgkmnoprstuwy0123456789";
            (0..rng() % 96)
                .map(|_| PIECES[(rng() % PIECES.len() as u64) as usize])
                .collect()
        };
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = Scenario::parse_file(&text) {
            assert!(e.line >= 1 && e.col >= 1, "{e}");
            assert!(e.line <= text.lines().count().max(1), "{e}");
        }
    }
}
