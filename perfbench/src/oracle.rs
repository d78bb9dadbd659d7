//! Checks of the program's answers against ground truth from `gen`.
//!
//! Each oracle returns `Err` with a reason on the first disagreement.
//! The tests at the bottom feed each one a wrong answer and require it
//! to fail.

use crate::gen::Truth;
use vault_server::Json;

/// Whether `verdict` plus `codes` (distinct error codes) is what `truth`
/// predicts.
pub fn verdict_matches(
    unit: &str,
    truth: &Truth,
    verdict: &str,
    codes: &[String],
) -> Result<(), String> {
    if truth.accept {
        if verdict != "accepted" || !codes.is_empty() {
            return Err(format!(
                "{unit}: expected accepted, got {verdict} {codes:?}"
            ));
        }
        return Ok(());
    }
    if verdict != "rejected" {
        return Err(format!(
            "{unit}: expected rejected with {:?}, got {verdict}",
            truth.codes
        ));
    }
    for want in &truth.codes {
        if !codes.iter().any(|c| c == want) {
            return Err(format!("{unit}: expected code {want}, got {codes:?}"));
        }
    }
    Ok(())
}

/// `vaultc check --project` stdout: each unit's rendered diagnostics,
/// then a `name: verdict` line, in manifest order.
pub fn cli_output(stdout: &str, names: &[&str], truth: &[Truth]) -> Result<(), String> {
    let mut codes: Vec<String> = Vec::new();
    let mut next = 0usize;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("error[") {
            if let Some((code, _)) = rest.split_once(']') {
                if !codes.iter().any(|c| c == code) {
                    codes.push(code.to_string());
                }
            }
            continue;
        }
        let Some(name) = names.get(next) else {
            continue;
        };
        let Some(rest) = line.strip_prefix(name).and_then(|r| r.strip_prefix(": ")) else {
            continue;
        };
        let verdict = rest.split_whitespace().next().unwrap_or("");
        verdict_matches(name, &truth[next], verdict, &codes)?;
        codes.clear();
        next += 1;
    }
    if next != names.len() {
        return Err(format!("verdicts for {next} of {} units", names.len()));
    }
    Ok(())
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("reply lacks `{key}`"))
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))
}

fn ok_reply(reply: &Json, op: &str) -> Result<(), String> {
    if field(reply, "ok")?.as_bool() != Some(true) {
        return Err(format!("error reply: {}", reply.to_line()));
    }
    let got = str_field(reply, "op")?;
    if got != op {
        return Err(format!("expected op {op}, got {got}"));
    }
    Ok(())
}

fn unit_codes(u: &Json) -> Result<Vec<String>, String> {
    Ok(field(u, "error_codes")?
        .as_arr()
        .ok_or("`error_codes` is not an array")?
        .iter()
        .filter_map(|c| c.as_str().map(str::to_string))
        .collect())
}

/// A `check` or `check-project` reply: one entry per unit, in order.
pub fn units_reply(reply: &Json, op: &str, names: &[&str], truth: &[Truth]) -> Result<(), String> {
    ok_reply(reply, op)?;
    let units = field(reply, "units")?
        .as_arr()
        .ok_or("`units` is not an array")?;
    if units.len() != names.len() {
        return Err(format!(
            "{} unit reports for {} units",
            units.len(),
            names.len()
        ));
    }
    for ((u, name), t) in units.iter().zip(names).zip(truth) {
        let got = str_field(u, "name")?;
        if got != *name {
            return Err(format!("expected unit {name}, got {got}"));
        }
        verdict_matches(name, t, str_field(u, "verdict")?, &unit_codes(u)?)?;
    }
    Ok(())
}

/// An `emit-c` reply: the verdict, and C exactly when the unit is accepted.
pub fn emit_reply(reply: &Json, name: &str, truth: &Truth) -> Result<(), String> {
    ok_reply(reply, "emit-c")?;
    let diags = field(reply, "diagnostics")?
        .as_arr()
        .ok_or("`diagnostics` is not an array")?;
    let mut codes: Vec<String> = Vec::new();
    for d in diags {
        if d.get("severity").and_then(Json::as_str) == Some("error") {
            let c = str_field(d, "code")?.to_string();
            if !codes.contains(&c) {
                codes.push(c);
            }
        }
    }
    verdict_matches(name, truth, str_field(reply, "verdict")?, &codes)?;
    match (truth.accept, reply.get("c").and_then(Json::as_str)) {
        (true, Some(c)) if !c.trim().is_empty() => Ok(()),
        (true, _) => Err(format!("{name}: accepted unit without C")),
        (false, None) => Ok(()),
        (false, Some(_)) => Err(format!("{name}: C emitted for a rejected unit")),
    }
}

/// Drop the fields that legitimately differ between two answers to the
/// same request: the echoed id, and timing and provenance (wall and
/// check time, whether the verdict came from a cache or a joined check).
fn strip_volatile(v: &Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| {
                    !matches!(k.as_str(), "id" | "wall_micros" | "check_micros" | "cached")
                })
                .map(|(k, x)| (k.clone(), strip_volatile(x)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_volatile).collect()),
        other => other.clone(),
    }
}

/// The two replies of a duplicate pair agree apart from id and timing.
pub fn duplicate_pair(a: &Json, b: &Json) -> Result<(), String> {
    if strip_volatile(a) == strip_volatile(b) {
        Ok(())
    } else {
        Err(format!(
            "duplicate replies differ:\n  {}\n  {}",
            a.to_line(),
            b.to_line()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vault_server::parse_json;

    fn leak() -> Truth {
        Truth {
            accept: false,
            codes: vec!["V304"],
        }
    }

    #[test]
    fn cli_oracle_bites() {
        let names = ["a", "b"];
        let truth = [Truth::accepted(), leak()];
        let good = "a: accepted\nerror[V304]: leaked\n  --> b:1:1\nb: rejected (1 error(s))\n";
        assert!(cli_output(good, &names, &truth).is_ok());
        // A flipped verdict, a wrong code, and a missing unit all fail.
        assert!(cli_output("a: accepted\nb: accepted\n", &names, &truth).is_err());
        let wrong_code = good.replace("V304", "V301");
        assert!(cli_output(&wrong_code, &names, &truth).is_err());
        assert!(cli_output("a: accepted\n", &names, &truth).is_err());
        // A spurious error on an accepted unit fails too.
        let spurious = format!("error[V301]: x\n{good}");
        assert!(cli_output(&spurious, &names, &truth).is_err());
    }

    fn project_reply(verdict_b: &str, codes_b: &str) -> Json {
        parse_json(&format!(
            r#"{{"id":1,"op":"check-project","ok":true,"wall_micros":5,"units":[
              {{"name":"a","verdict":"accepted","cached":false,"check_micros":3,"error_codes":[],"diagnostics":[]}},
              {{"name":"b","verdict":"{verdict_b}","cached":true,"check_micros":0,"error_codes":[{codes_b}],"diagnostics":[]}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn units_oracle_bites() {
        let names = ["a", "b"];
        let truth = [Truth::accepted(), leak()];
        assert!(units_reply(
            &project_reply("rejected", "\"V304\""),
            "check-project",
            &names,
            &truth
        )
        .is_ok());
        assert!(units_reply(
            &project_reply("accepted", ""),
            "check-project",
            &names,
            &truth
        )
        .is_err());
        assert!(units_reply(
            &project_reply("rejected", "\"V301\""),
            "check-project",
            &names,
            &truth
        )
        .is_err());
        assert!(units_reply(
            &project_reply("rejected", "\"V304\""),
            "check",
            &names,
            &truth
        )
        .is_err());
        assert!(units_reply(
            &project_reply("rejected", "\"V304\""),
            "check-project",
            &["a", "c"],
            &truth
        )
        .is_err());
        let err = parse_json(r#"{"id":1,"op":"error","ok":false,"error":"x"}"#).unwrap();
        assert!(units_reply(&err, "check-project", &names, &truth).is_err());
    }

    #[test]
    fn emit_oracle_bites() {
        let ok = parse_json(r#"{"op":"emit-c","ok":true,"name":"a","verdict":"accepted","diagnostics":[],"c":"int main(void) { return 0; }"}"#).unwrap();
        assert!(emit_reply(&ok, "a", &Truth::accepted()).is_ok());
        // C for a unit that must be rejected, or no C for an accepted one.
        assert!(emit_reply(&ok, "a", &leak()).is_err());
        let no_c = parse_json(
            r#"{"op":"emit-c","ok":true,"name":"a","verdict":"accepted","diagnostics":[]}"#,
        )
        .unwrap();
        assert!(emit_reply(&no_c, "a", &Truth::accepted()).is_err());
        let rejected = parse_json(
            r#"{"op":"emit-c","ok":true,"name":"a","verdict":"rejected","diagnostics":[{"code":"V304","severity":"error"}]}"#,
        )
        .unwrap();
        assert!(emit_reply(&rejected, "a", &leak()).is_ok());
        assert!(emit_reply(&rejected, "a", &Truth::accepted()).is_err());
    }

    #[test]
    fn duplicate_oracle_bites() {
        let a = project_reply("rejected", "\"V304\"");
        let mut b = project_reply("rejected", "\"V304\"");
        if let Json::Obj(pairs) = &mut b {
            pairs[0].1 = Json::num(2);
            pairs[3].1 = Json::num(99);
        }
        assert!(duplicate_pair(&a, &b).is_ok());
        assert!(duplicate_pair(&a, &project_reply("rejected", "\"V301\"")).is_err());
    }
}
