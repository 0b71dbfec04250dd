//! Golden conformance fixtures (DESIGN.md §6f): three tiny hand-computed
//! instances checked in as JSON, with *exact* expected values — `X_uv` as
//! integer fractions, per-input disagreement distances `d_V`, and the
//! total disagreement `D(C)`. Both the packed kernel paths and the scalar
//! reference implementations must reproduce every value to the bit; the
//! fixtures pin the semantics independently of either implementation.
//!
//! The crate has no JSON dependency, so a ~60-line recursive-descent
//! parser lives here (tests only — the library itself never parses JSON).

use aggclust_core::clustering::{Clustering, PartialClustering};
use aggclust_core::distance::{disagreement_distance, total_disagreement};
use aggclust_core::instance::{CorrelationInstance, DenseOracle, DistanceOracle, MissingPolicy};
use aggclust_core::kernels::reference;

// ---------------------------------------------------------------- JSON --

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn as_i64(&self) -> i64 {
        self.as_f64() as i64
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_i64_vec(&self) -> Vec<i64> {
        self.as_arr().iter().map(Json::as_i64).collect()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing garbage in fixture");
        value
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.skip_ws();
        assert_eq!(
            self.bytes.get(self.pos).copied(),
            Some(b),
            "expected {:?} at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.bytes[self.pos] {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(text.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += text.len();
        value
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes[self.pos] == b'}' {
            self.pos += 1;
            return Json::Obj(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.eat(b':');
            fields.push((key, self.value()));
            self.skip_ws();
            match self.bytes[self.pos] {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Json::Obj(fields);
                }
                other => panic!("expected ',' or '}}', got {:?}", other as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes[self.pos] == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            self.skip_ws();
            match self.bytes[self.pos] {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Json::Arr(items);
                }
                other => panic!("expected ',' or ']', got {:?}", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.pos;
        while self.bytes[self.pos] != b'"' {
            assert_ne!(self.bytes[self.pos], b'\\', "fixtures use no escapes");
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("fixtures are UTF-8")
            .to_string();
        self.pos += 1;
        s
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Json::Num(text.parse::<f64>().expect("bad number in fixture"))
    }
}

// ------------------------------------------------------------ fixtures --

fn total_clusterings(fixture: &Json) -> Vec<Clustering> {
    fixture
        .get("clusterings")
        .expect("clusterings")
        .as_arr()
        .iter()
        .map(|labels| {
            Clustering::from_labels(labels.as_i64_vec().iter().map(|&l| l as u32).collect())
        })
        .collect()
}

fn partial_clusterings(fixture: &Json) -> Vec<PartialClustering> {
    fixture
        .get("clusterings")
        .expect("clusterings")
        .as_arr()
        .iter()
        .map(|labels| {
            PartialClustering::from_labels(
                labels
                    .as_i64_vec()
                    .iter()
                    .map(|&l| if l < 0 { None } else { Some(l as u32) })
                    .collect(),
            )
        })
        .collect()
}

/// Expected condensed `X_uv` values as exact fractions `num[i] / den`.
fn expected_x(fixture: &Json, num_key: &str, den_key: &str) -> Vec<f64> {
    let den = fixture.get(den_key).expect(den_key).as_f64();
    fixture
        .get(num_key)
        .expect(num_key)
        .as_i64_vec()
        .iter()
        .map(|&n| n as f64 / den)
        .collect()
}

fn check_condensed_bits(n: usize, expected: &[f64], got: impl Fn(usize, usize) -> f64, ctx: &str) {
    assert_eq!(expected.len(), n * (n - 1) / 2, "{ctx}: fixture length");
    let mut i = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            assert_eq!(
                got(u, v).to_bits(),
                expected[i].to_bits(),
                "{ctx}: X[{u},{v}] = {} but fixture says {}",
                got(u, v),
                expected[i]
            );
            i += 1;
        }
    }
}

fn check_dv_and_total(fixture: &Json, cs: &[Clustering]) {
    let candidate = Clustering::from_labels(
        fixture
            .get("candidate")
            .expect("candidate")
            .as_i64_vec()
            .iter()
            .map(|&l| l as u32)
            .collect(),
    );
    let expected_dv = fixture.get("d_v").expect("d_v").as_i64_vec();
    assert_eq!(expected_dv.len(), cs.len());
    for (c, &dv) in cs.iter().zip(&expected_dv) {
        assert_eq!(disagreement_distance(c, &candidate), dv as u64);
    }
    assert_eq!(
        total_disagreement(cs, &candidate),
        fixture.get("total_disagreement").expect("total").as_i64() as u64
    );
}

#[test]
fn golden_figure1_total_instance() {
    let fixture = Parser::parse(include_str!("golden/figure1.json"));
    let cs = total_clusterings(&fixture);
    let n = cs[0].len();
    let expected = expected_x(&fixture, "x_num", "x_den");
    let dense = DenseOracle::from_clusterings(&cs);
    check_condensed_bits(n, &expected, |u, v| dense.dist(u, v), "figure1 packed");
    check_condensed_bits(
        n,
        &expected,
        |u, v| reference::xuv_total(&cs, u, v),
        "figure1 reference",
    );
    check_dv_and_total(&fixture, &cs);
}

#[test]
fn golden_weighted_instance() {
    let fixture = Parser::parse(include_str!("golden/weighted.json"));
    let cs = total_clusterings(&fixture);
    let weights: Vec<f64> = fixture
        .get("weights")
        .expect("weights")
        .as_arr()
        .iter()
        .map(Json::as_f64)
        .collect();
    let n = cs[0].len();
    let expected = expected_x(&fixture, "x_num", "x_den");
    let dense = DenseOracle::from_weighted_clusterings(&cs, &weights);
    check_condensed_bits(n, &expected, |u, v| dense.dist(u, v), "weighted packed");
    check_condensed_bits(
        n,
        &expected,
        |u, v| reference::xuv_weighted(&cs, &weights, u, v),
        "weighted reference",
    );
    check_dv_and_total(&fixture, &cs);
}

#[test]
fn golden_partial_instance_under_both_policies() {
    let fixture = Parser::parse(include_str!("golden/partial_coin.json"));
    let ps = partial_clusterings(&fixture);
    let n = ps[0].len();
    let p = fixture.get("coin_p_num").expect("p num").as_f64()
        / fixture.get("coin_p_den").expect("p den").as_f64();

    let coin = MissingPolicy::Coin(p);
    let expected_coin = expected_x(&fixture, "coin_x_num", "coin_x_den");
    let oracle = CorrelationInstance::from_partial(ps.clone(), coin);
    check_condensed_bits(n, &expected_coin, |u, v| oracle.dist(u, v), "coin packed");
    check_condensed_bits(
        n,
        &expected_coin,
        |u, v| reference::xuv_partial(&ps, coin, u, v),
        "coin reference",
    );

    let expected_ignore: Vec<f64> = fixture
        .get("ignore_x")
        .expect("ignore_x")
        .as_arr()
        .iter()
        .map(|pair| {
            let frac = pair.as_i64_vec();
            frac[0] as f64 / frac[1] as f64
        })
        .collect();
    let oracle = CorrelationInstance::from_partial(ps.clone(), MissingPolicy::Ignore);
    check_condensed_bits(
        n,
        &expected_ignore,
        |u, v| oracle.dist(u, v),
        "ignore packed",
    );
    check_condensed_bits(
        n,
        &expected_ignore,
        |u, v| reference::xuv_partial(&ps, MissingPolicy::Ignore, u, v),
        "ignore reference",
    );
}
