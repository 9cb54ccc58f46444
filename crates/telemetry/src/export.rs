//! JSON rendering of a captured [`Telemetry`] via the in-tree writer.

use stellar_sim::json::{Arr, Obj};

use crate::{Stage, Telemetry};

impl Telemetry {
    /// Render the capture as the `TRACE_<scenario>.json` document: the
    /// per-stage latency breakdown, every hub counter, recorder health,
    /// and the retained event ring.
    ///
    /// Rendering is fully deterministic: stages in [`Stage::ALL`] order
    /// (empty ones omitted), counters in `(subsystem, name)` order,
    /// events oldest-first as folded in job order by the work pool.
    pub fn to_json(&self, scenario: &str) -> String {
        let mut stages = Arr::new();
        for &stage in &Stage::ALL {
            let h = self.stage(stage);
            if h.count() == 0 {
                continue;
            }
            let p = h.percentiles();
            stages = stages.push_raw(
                &Obj::new()
                    .field_str("stage", stage.name())
                    .field_u64("count", p.count() as u64)
                    .field_u64("total_ns", p.sum() as u64)
                    .field_f64("mean_ns", p.mean().unwrap_or(0.0))
                    .field_u64("p50_ns", p.p50().unwrap_or(0))
                    .field_u64("p99_ns", p.p99().unwrap_or(0))
                    .field_u64("max_ns", p.max().unwrap_or(0))
                    .finish(),
            );
        }

        let mut counters = Arr::new();
        for (sub, name, value) in self.hub.iter() {
            counters = counters.push_raw(
                &Obj::new()
                    .field_str("subsystem", sub.name())
                    .field_str("name", name)
                    .field_u64("value", value)
                    .finish(),
            );
        }

        let recorder = Obj::new()
            .field_u64("capacity", self.recorder.capacity() as u64)
            .field_u64("recorded", self.recorder.recorded())
            .field_u64("retained", self.recorder.len() as u64)
            .field_u64("dropped", self.recorder.dropped())
            .field_u64("high_water", self.recorder.high_water() as u64)
            .finish();

        let mut events = Arr::new();
        for ev in self.recorder.events() {
            events = events.push_raw(
                &Obj::new()
                    .field_u64("t_ns", ev.at.as_nanos())
                    .field_str("subsystem", ev.subsystem.name())
                    .field_str("entity", &ev.entity.render())
                    .field_str("kind", ev.kind)
                    .field_u64("value", ev.value)
                    .finish(),
            );
        }

        Obj::new()
            .field_str("scenario", scenario)
            .field_raw("stages", &stages.finish())
            .field_raw("counters", &counters.finish())
            .field_raw("recorder", &recorder)
            .field_raw("events", &events.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{capture, event, fold_counters, stage_sample, Entity, Subsystem};
    use stellar_sim::json::{parse, Value};
    use stellar_sim::{SimDuration, SimTime};

    #[test]
    fn to_json_parses_and_carries_the_breakdown() {
        let ((), tel) = capture(|| {
            stage_sample(Stage::TransportMsg, SimDuration::from_nanos(500));
            fold_counters(Subsystem::Net, || {
                [("drop.random_loss", 4), ("drop.link_down", 0)]
            });
            event(
                SimTime::from_nanos(10),
                Subsystem::Net,
                Entity::Link(2),
                "drop",
                4096,
            );
        });
        let doc = tel.to_json("unit");
        let v = parse(&doc).expect("trace doc parses");
        let Value::Obj(fields) = v else { panic!("object") };
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert!(matches!(get("scenario"), Some(Value::Str(s)) if s == "unit"));
        let Some(Value::Arr(stages)) = get("stages") else { panic!("stages") };
        assert_eq!(stages.len(), 1, "only non-empty stages render");
        let Some(Value::Arr(counters)) = get("counters") else { panic!("counters") };
        assert_eq!(counters.len(), 1, "only nonzero counters render");
        let Some(Value::Arr(events)) = get("events") else { panic!("events") };
        assert_eq!(events.len(), 1);
        let Some(Value::Obj(rec)) = get("recorder") else { panic!("recorder") };
        assert!(rec.iter().any(|(n, v)| n == "recorded" && matches!(v, Value::Num(x) if *x == 1.0)));
    }
}
