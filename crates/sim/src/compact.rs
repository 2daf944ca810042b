//! Id-resident bot replay: the production side of the zero-allocation
//! streaming pipeline.
//!
//! These are the [`simulate_activation`](crate::simulate_activation) /
//! [`replay_barrel`](crate::replay_barrel) twins that emit
//! [`CompactLookup`] records — plain-old-data `Copy` tuples carrying a
//! [`DomainId`] — appended into a caller-supplied buffer (drawn from a
//! [`BufferPool`](botmeter_exec::BufferPool) by the streaming pipeline, so
//! steady-state shard production never allocates). The rng draw sequence is
//! **identical** to the name-materialising twins: the only difference is
//! which 8 bytes describe the domain, and the `compact_replay_equivalence`
//! test below pins the two record-for-record.
//!
//! This module is the hot path of shard production and deliberately never
//! names a domain: records stay ids end-to-end, and `scripts/check.sh`
//! greps this file to keep it that way. Hydration back to text happens at
//! the egress edge only (see `ScenarioSpec::run`), through the interner
//! that assigned the ids.

use botmeter_dga::DgaFamily;
use botmeter_dns::{ClientId, CompactLookup, DomainId, SimInstant};
use rand::Rng;
use std::collections::HashSet;

/// One producer worker's output for a shard of the compact streaming
/// pipeline: the records that fall inside the shard's own time slice plus
/// the runs that overshoot into later shards, every run stable-sorted by
/// the global key `(t, client)`. The buffers are drawn from the pipeline's
/// [`BufferPool`](botmeter_exec::BufferPool) and recycled by the consumer
/// once the shard is merged.
pub(crate) struct CompactShardBatch {
    /// Records whose destination is this shard, sorted by `(t, client)`.
    pub own: Vec<CompactLookup>,
    /// `(destination shard, sorted run)` pairs for overshooting records,
    /// in ascending destination order.
    pub overflow: Vec<(usize, Vec<CompactLookup>)>,
    /// Total records this shard's job range generated.
    pub generated: u64,
}

/// [`simulate_activation`](crate::simulate_activation) over pool ids:
/// draws the bot's query barrel from the family model and replays it,
/// appending the lookups to `out`. Consumes exactly the same rng stream as
/// the name-materialising twin.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_activation_into<R: Rng + ?Sized>(
    family: &DgaFamily,
    epoch: u64,
    pool_ids: &[DomainId],
    valid_indices: &HashSet<usize>,
    start: SimInstant,
    client: ClientId,
    rng: &mut R,
    out: &mut Vec<CompactLookup>,
) {
    let barrel = family.draw_barrel(epoch, rng);
    replay_barrel_into(
        family,
        pool_ids,
        valid_indices,
        barrel,
        start,
        client,
        rng,
        out,
    );
}

/// [`replay_barrel`](crate::replay_barrel) over pool ids: replays an
/// explicit barrel of pool indices as id-resident lookups appended to
/// `out`, stopping after the first valid (registered C2) index. Takes the
/// barrel as any index iterator so colluded barrels need no materialising.
#[allow(clippy::too_many_arguments)]
pub(crate) fn replay_barrel_into<R: Rng + ?Sized, I: IntoIterator<Item = usize>>(
    family: &DgaFamily,
    pool_ids: &[DomainId],
    valid_indices: &HashSet<usize>,
    barrel: I,
    start: SimInstant,
    client: ClientId,
    rng: &mut R,
    out: &mut Vec<CompactLookup>,
) {
    let mut t = start;
    for (k, idx) in barrel.into_iter().enumerate() {
        if k > 0 {
            t += crate::bot::query_gap(family.params().timing(), rng);
        }
        out.push(CompactLookup::new(t, client, pool_ids[idx]));
        if valid_indices.contains(&idx) {
            break; // C2 reached: the bot stops querying.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_barrel, simulate_activation};
    use botmeter_dns::RawLookup;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn compacted(lookups: &[RawLookup]) -> Vec<CompactLookup> {
        lookups.iter().map(RawLookup::compact).collect()
    }

    #[test]
    fn compact_replay_equivalence() {
        for family in DgaFamily::all_presets() {
            for epoch in 0..2u64 {
                let pool = family.pool_for_epoch(epoch);
                let ids: Vec<DomainId> = pool.iter().map(|d| d.id()).collect();
                let valid: HashSet<usize> = family.valid_indices(epoch).into_iter().collect();
                let start = SimInstant::from_millis(epoch * 86_400_000 + 1_234);
                // A colluded barrel starting near the end of the pool, so
                // its indices wrap around to the front.
                let theta_q = family.params().theta_q().min(pool.len());
                let wrap_start = pool.len() - (theta_q / 2).max(1);
                let colluded: Vec<usize> = (0..theta_q)
                    .map(|k| (wrap_start + k) % pool.len())
                    .collect();
                for seed in 0..4u64 {
                    let what = format!("{} epoch {epoch} seed {seed}", family.name());
                    let client = ClientId(seed as u32);

                    let mut name_rng = ChaCha12Rng::seed_from_u64(seed);
                    let mut id_rng = name_rng.clone();
                    let names = simulate_activation(
                        &family,
                        epoch,
                        &pool,
                        &valid,
                        start,
                        client,
                        &mut name_rng,
                    );
                    let mut out = Vec::new();
                    simulate_activation_into(
                        &family,
                        epoch,
                        &ids,
                        &valid,
                        start,
                        client,
                        &mut id_rng,
                        &mut out,
                    );
                    assert_eq!(compacted(&names), out, "activation diverged: {what}");
                    assert_eq!(
                        name_rng.gen::<u64>(),
                        id_rng.gen::<u64>(),
                        "activation rng state diverged: {what}"
                    );

                    let names = replay_barrel(
                        &family,
                        &pool,
                        &valid,
                        colluded.clone(),
                        start,
                        client,
                        &mut name_rng,
                    );
                    out.clear();
                    replay_barrel_into(
                        &family,
                        &ids,
                        &valid,
                        colluded.iter().copied(),
                        start,
                        client,
                        &mut id_rng,
                        &mut out,
                    );
                    assert_eq!(compacted(&names), out, "colluded barrel diverged: {what}");
                    assert_eq!(
                        name_rng.gen::<u64>(),
                        id_rng.gen::<u64>(),
                        "colluded rng state diverged: {what}"
                    );
                }
            }
        }
    }
}
