//! Property tests: configuration interning must round-trip for arbitrary
//! spaces — `ConfigId` → settings → the same `ConfigId` — and the arena's
//! precomputed effects and neighbour enumeration must agree exactly with
//! the unmemoized `ConfigurationSpace` queries they replace. The shared
//! table a runtime receives must equal a freshly built one.

use actuation::{
    ActuatorSpec, Axis, ConfigId, ConfigTable, Configuration, ConfigurationSpace, SettingSpec,
};
use proptest::prelude::*;

/// Builds a deterministic space from a shape vector: one actuator per
/// entry, that many settings, with effects derived from the indices.
fn space_from_shape(radices: &[usize]) -> ConfigurationSpace {
    let specs = radices
        .iter()
        .enumerate()
        .map(|(actuator, &settings)| {
            let mut builder = ActuatorSpec::builder(format!("actuator-{actuator}"));
            for setting in 0..settings {
                builder = builder.setting(
                    SettingSpec::new(format!("s{setting}"))
                        .effect(Axis::Performance, 0.5 + setting as f64 * 0.7)
                        .effect(Axis::Power, 0.3 + setting as f64 * (actuator + 1) as f64 * 0.4),
                );
            }
            builder
                .nominal(settings / 2)
                .build()
                .expect("generated spec is valid")
        })
        .collect();
    ConfigurationSpace::new(specs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interning_round_trips_and_matches_the_space(
        radices in proptest::collection::vec(1usize..5, 1..5),
    ) {
        let space = space_from_shape(&radices);
        let table = space.table();
        prop_assert_eq!(table.len(), space.cardinality());
        prop_assert_eq!(table.arity(), space.arity());
        prop_assert_eq!(table.config_of(table.nominal()), space.nominal());

        // The process-wide shared table for these specs is the table a
        // fresh build produces, field for field.
        let specs: Vec<&ActuatorSpec> = space.specs().iter().collect();
        prop_assert_eq!(&*ConfigTable::shared(&specs), &table);

        for (index, config) in space.iter().enumerate() {
            let id = ConfigId(index as u32);

            // ConfigId → settings → the same ConfigId.
            let materialised = table.config_of(id);
            prop_assert_eq!(&materialised, &config);
            prop_assert_eq!(table.id_of(&materialised), Some(id));
            for pos in 0..config.len() {
                prop_assert_eq!(Some(table.setting(id, pos)), config.setting(pos));
            }

            // Precomputed declared effects are bit-identical to the
            // space's on-the-fly prediction.
            let declared = table.declared_effect(id);
            let predicted = space.predicted_effect(&config).expect("valid configuration");
            prop_assert_eq!(declared.performance.to_bits(), predicted.performance.to_bits());
            prop_assert_eq!(declared.power.to_bits(), predicted.power.to_bits());
            prop_assert_eq!(declared.accuracy.to_bits(), predicted.accuracy.to_bits());

            // Neighbour arithmetic enumerates exactly the space's
            // neighbour list, in the same order.
            let neighbors = space.neighbors(&config);
            prop_assert_eq!(table.neighbor_count(), neighbors.len());
            for (k, neighbor) in neighbors.iter().enumerate() {
                prop_assert_eq!(&table.config_of(table.neighbor(id, k)), neighbor);
            }
        }

        // Arity mismatches and out-of-range settings do not intern.
        let mut too_long: Vec<usize> = vec![0; radices.len() + 1];
        too_long[radices.len()] = 0;
        prop_assert_eq!(table.id_of(&Configuration::new(too_long)), None);
        let mut out_of_range: Vec<usize> = vec![0; radices.len()];
        out_of_range[0] = radices[0];
        prop_assert_eq!(table.id_of(&Configuration::new(out_of_range)), None);

        // The sorted indices cover every id and are ordered by their keys.
        let by_speedup = table.by_declared_speedup();
        prop_assert_eq!(by_speedup.len(), table.len());
        for pair in by_speedup.windows(2) {
            prop_assert!(
                table.declared_effect(pair[0]).performance
                    <= table.declared_effect(pair[1]).performance
            );
        }
        let by_power = table.by_declared_power();
        for pair in by_power.windows(2) {
            prop_assert!(table.declared_effect(pair[0]).power <= table.declared_effect(pair[1]).power);
        }
    }
}
