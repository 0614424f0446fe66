//! Domain-specific external primitives for the paper's two worked
//! examples.
//!
//! §1 and §4.2 assume "computation-intensive algorithms are handled by
//! domain-specific external primitives written in GPPLs" — there the
//! host language is SML, here it is Rust. [`register_heatindex`] and
//! [`register_june_sunset`] are the Rust counterparts of the paper's
//! `TopEnv.RegisterCO` calls.

use aql_core::error::EvalError;
use aql_core::prim::NativeFn;
use aql_core::types::Type;
use aql_core::value::array::{ArrayData, Column};
use aql_core::value::Value;
use aql_lang::session::Session;

/// The NOAA (Rothfusz) heat-index regression for temperature (°F) and
/// relative humidity (%). Below 80 °F the index is just the
/// temperature.
pub fn heat_index(t: f64, rh: f64) -> f64 {
    if t < 80.0 {
        return t;
    }
    -42.379 + 2.04901523 * t + 10.14333127 * rh
        - 0.22475541 * t * rh
        - 6.83783e-3 * t * t
        - 5.481717e-2 * rh * rh
        + 1.22874e-3 * t * t * rh
        + 8.5282e-4 * t * rh * rh
        - 1.99e-6 * t * t * rh * rh
}

/// The "unbearability" measure the §1 query calls `heatindex`: given a
/// day's worth of hourly `(temperature, humidity, wind-speed)` triples,
/// the maximum hourly heat index, discounted slightly by wind relief.
pub fn day_heat_index(readings: &[(f64, f64, f64)]) -> f64 {
    fold_day(readings.iter().copied())
}

/// [`day_heat_index`] over readings in any order of storage: the one
/// expression and fold order, so that every layout gives the same bits.
fn fold_day(readings: impl Iterator<Item = (f64, f64, f64)>) -> f64 {
    readings.map(|(t, rh, ws)| heat_index(t, rh) - 0.3 * ws).fold(f64::MIN, f64::max)
}

/// Register `heatindex : [[real * real * real]] -> real` on a session
/// (the §1 external: input is a one-dimensional array of a day's
/// hourly (temperature, relative humidity, wind speed) readings).
pub fn register_heatindex(session: &mut Session) {
    let ty = Type::fun(
        Type::array1(Type::tuple(vec![Type::Real, Type::Real, Type::Real])),
        Type::Real,
    );
    session.register_external(NativeFn::new("heatindex", ty, |v| {
        let arr = v.as_array()?;
        // A day stored as three real columns is read as three slices.
        if let ArrayData::Columns(cols) = arr.array_data() {
            if let [Column::F64(t), Column::F64(rh), Column::F64(ws)] = cols.as_slice() {
                if t.is_empty() {
                    return Ok(Value::Bottom);
                }
                let day = t.iter().zip(rh).zip(ws).map(|((&t, &rh), &ws)| (t, rh, ws));
                return Ok(Value::Real(fold_day(day)));
            }
        }
        let mut readings = Vec::with_capacity(arr.len());
        for off in 0..arr.len() {
            // Component by component: a column array boxes no triple.
            let part = |i| match arr.component_at(off, i) {
                Some(x) => x.as_real(),
                // Not a tuple (`as_tuple` says so), or a short one.
                None => arr.value_at(off).as_tuple().and_then(|t| {
                    Err(EvalError::IllTyped(format!("expected a triple, got a {}-tuple", t.len())))
                }),
            };
            readings.push((part(0)?, part(1)?, part(2)?));
        }
        if readings.is_empty() {
            return Ok(Value::Bottom);
        }
        Ok(Value::Real(day_heat_index(&readings)))
    }));
}

/// Approximate sunset hour (local standard time, whole hours) for a
/// given latitude/longitude and day of June, via solar declination and
/// the sunset hour angle.
pub fn sunset_hour(lat_deg: f64, lon_deg: f64, june_day: u64) -> u64 {
    // Day of year for June `june_day` (non-leap year).
    let n = (31 + 28 + 31 + 30 + 31 + june_day) as f64;
    let decl = 23.44f64.to_radians() * (std::f64::consts::TAU * (284.0 + n) / 365.0).sin();
    let lat = lat_deg.to_radians();
    let cos_h = (-lat.tan() * decl.tan()).clamp(-1.0, 1.0);
    let h_deg = cos_h.acos().to_degrees();
    // Solar noon in the Eastern (UTC-5) zone the paper's NYC data uses.
    let solar_noon = 12.0 - (lon_deg + 75.0) / 15.0;
    let sunset = solar_noon + h_deg / 15.0;
    sunset.floor().max(0.0) as u64
}

/// Register `june_sunset : real * real * nat -> nat` (the §4.2
/// external): given latitude, longitude and a June day number, the
/// *absolute hour index within June* of sunset on that day — the form
/// the session's query compares against its hour index `h`.
pub fn register_june_sunset(session: &mut Session) {
    let ty = Type::fun(
        Type::tuple(vec![Type::Real, Type::Real, Type::Nat]),
        Type::Nat,
    );
    session.register_external(NativeFn::new("june_sunset", ty, |v| {
        let t = v.as_tuple()?;
        let lat = t[0].as_real()?;
        let lon = t[1].as_real()?;
        let day = t[2].as_nat()?;
        if day == 0 {
            return Ok(Value::Bottom);
        }
        Ok(Value::Nat((day - 1) * 24 + sunset_hour(lat, lon, day)))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_index_matches_noaa_reference() {
        // NOAA reference point: 90 °F / 70 % RH → ≈ 105.4.
        let hi = heat_index(90.0, 70.0);
        assert!((hi - 105.4).abs() < 1.0, "got {hi}");
        // Below 80 the index is the temperature.
        assert_eq!(heat_index(75.0, 90.0), 75.0);
        // Humidity raises the index.
        assert!(heat_index(92.0, 80.0) > heat_index(92.0, 40.0));
    }

    #[test]
    fn day_heat_index_takes_the_max() {
        let day = vec![(70.0, 50.0, 0.0), (95.0, 60.0, 0.0), (80.0, 40.0, 0.0)];
        let v = day_heat_index(&day);
        assert!(v > 100.0, "the 95° hour dominates, got {v}");
        // Wind gives relief.
        let windy = vec![(95.0, 60.0, 20.0)];
        assert!(day_heat_index(&windy) < day_heat_index(&[(95.0, 60.0, 0.0)]));
    }

    #[test]
    fn nyc_june_sunset_is_evening() {
        // NYC: sunset in June around 19:25 EST (≈ 20:25 EDT).
        let h = sunset_hour(40.7, -74.0, 21);
        assert!((19..=20).contains(&h), "got {h}");
        // Absolute hour for day d lands in day d's range.
        let mut s = Session::new();
        register_june_sunset(&mut s);
        let (_, v) = s.eval_query("june_sunset!(40.7, -74.0, 3)").unwrap();
        let abs = v.as_nat().unwrap();
        assert!((48..72).contains(&abs), "got {abs}");
    }

    #[test]
    fn externals_reject_bad_input() {
        let mut s = Session::new();
        register_heatindex(&mut s);
        register_june_sunset(&mut s);
        // Empty day → ⊥.
        let (_, v) = s
            .eval_query("heatindex!(subseq!([[ (90.0, 60.0, 5.0) ]], 5, 4))")
            .unwrap();
        assert!(v.is_bottom());
        // Day 0 → ⊥.
        let (_, v) = s.eval_query("june_sunset!(40.7, -74.0, 0)").unwrap();
        assert!(v.is_bottom());
    }

    #[test]
    fn heatindex_over_three_real_columns_is_the_readings_fold_bit_for_bit() {
        let mut s = Session::new();
        register_heatindex(&mut s);
        let (_, Value::Native(f)) = s.eval_query("heatindex").unwrap() else {
            panic!("heatindex is a primitive")
        };
        let triple = |&(t, rh, ws): &(f64, f64, f64)| Value::tuple(vec![Value::Real(t), Value::Real(rh), Value::Real(ws)]);
        let days: [&[(f64, f64, f64)]; 5] = [
            &[(95.0, 60.0, 3.0), (80.0, 40.0, 0.5), (70.0, 90.0, 0.0)],
            // Below 80 °F the index is the temperature.
            &[(79.9, 99.0, 0.0), (42.0, 10.0, 7.5), (-3.0, 0.0, 0.25)],
            // A NaN reading, at the start and at the end; and −0.0.
            &[(f64::NAN, 50.0, 1.0), (88.0, 70.0, -0.0), (90.0, 65.0, 2.0)],
            &[(88.0, 70.0, 0.0), (-0.0, -0.0, -0.0), (92.0, f64::NAN, 1.0)],
            &[(-0.0, 0.0, 0.0)],
        ];
        for day in days {
            let columns = Value::array1(day.iter().map(triple).collect());
            let Value::Array(a) = &columns else { unreachable!("an array") };
            assert!(matches!(a.array_data(), ArrayData::Columns(c) if c.len() == 3));
            // The slice path against the component path's own fold over
            // the same readings, one at a time.
            let Value::Real(got) = f.call(&columns).unwrap() else { panic!("a real") };
            assert_eq!(got.to_bits(), day_heat_index(day).to_bits(), "{day:?}");
        }
        // An empty day of three columns is ⊥, as an empty day always was.
        let (_, v) = s.eval_query("heatindex!(subseq!([[ (90.0, 60.0, 5.0) ]], 5, 4))").unwrap();
        assert!(v.is_bottom());
        // Another layout keeps its reading and its error text: a `nat`
        // column, and pairs.
        let nat = Value::array1(vec![Value::tuple(vec![Value::Real(90.0), Value::Real(60.0), Value::Nat(3)])]);
        let pairs = Value::array1(vec![Value::tuple(vec![Value::Real(90.0), Value::Real(60.0)])]);
        let failed = "external primitive `heatindex` failed: ill-typed value at runtime:";
        assert_eq!(f.call(&nat).unwrap_err().to_string(), format!("{failed} expected real, got 3"));
        assert_eq!(f.call(&pairs).unwrap_err().to_string(), format!("{failed} expected a triple, got a 2-tuple"));
    }

    #[test]
    fn heatindex_reads_a_column_day_component_by_component() {
        use aql_core::value::array::ArrayData;
        let mut s = Session::new();
        register_heatindex(&mut s);
        let day = [(95.0, 60.0, 3.0), (80.0, 40.0, 0.5), (70.0, 90.0, 0.0)];
        let real = |x: f64| Value::Real(x);
        let cells = day.iter().map(|&(t, rh, ws)| Value::tuple(vec![real(t), real(rh), real(ws)]));
        let columns = Value::array1(cells.collect());
        let Value::Array(a) = &columns else { unreachable!("an array") };
        assert!(matches!(a.array_data(), ArrayData::Columns(_)));
        let (_, Value::Native(f)) = s.eval_query("heatindex").unwrap() else {
            panic!("heatindex is a primitive")
        };
        assert_eq!(f.call(&columns).unwrap(), Value::Real(day_heat_index(&day)));
        // A cell that is no triple, in a flat array or a boxed one: the
        // error the boxed reading always gave.
        let flat = Value::array1(vec![real(1.0)]);
        let hour = Value::tuple(vec![real(95.0), real(60.0), real(3.0)]);
        let boxed = Value::array1(vec![hour, real(1.0)]);
        let error = "external primitive `heatindex` failed: \
                     ill-typed value at runtime: expected tuple, got 1.0";
        for arr in [flat, boxed] {
            assert_eq!(f.call(&arr).unwrap_err().to_string(), error);
        }
    }
}
