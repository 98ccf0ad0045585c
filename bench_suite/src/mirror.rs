//! The layered run of the training workloads.
//!
//! A mirror of the round loop in `fl_sim::runner::run_federated_traced`
//! that calls each layer's public function inside a bench-side span —
//! `round` → `selection`, `gather`, `frequency`, `timeline`,
//! `local_update`, `aggregate`, `evaluate` — with the work counts as
//! span attributes. It covers what the training workloads configure:
//! no batteries, no training deadline, no convergence exit and no
//! checkpoints. The library itself only ever sees
//! `Telemetry::disabled()`. The caller checks that the mirror's history
//! equals the production run's, so the spans time the same work.

use fl_sim::client::LocalUpdateSpec;
use fl_sim::error::Result;
use fl_sim::faults::{DeviceFault, FaultPlan, FaultedRound};
use fl_sim::frequency::FrequencyPolicy;
use fl_sim::history::{RoundRecord, TrainingHistory};
use fl_sim::parallel::{with_trainer_pool, worker_threads};
use fl_sim::runner::{FederatedSetup, TrainingConfig};
use fl_sim::seeds::{derive, SeedDomain};
use fl_sim::selection::{
    selection_target, validate_selection, ClientSelector, DeviceSet, SelectionContext,
};
use fl_sim::server::Flcc;
use helcfl::{DecayCoefficient, GreedyDecaySelector, SlackFrequencyPolicy};
use helcfl_telemetry::{span, Telemetry};
use mec_sim::device::{Device, DeviceId};
use mec_sim::fleet::AliveMask;
use mec_sim::timeline::RoundTimeline;
use mec_sim::units::{Joules, Seconds};

use crate::spans::{end, phase};

/// What one round's timeline phase resolved, from either round engine.
struct Resolved {
    /// Indices into the round's selection whose update was delivered.
    delivered_idx: Vec<usize>,
    round_time: Seconds,
    eq10_time: Seconds,
    round_energy: Joules,
    compute_energy: Joules,
    slack: Seconds,
    wasted_energy: Joules,
    faults: usize,
}

/// Runs HELCFL (Alg. 2 with decay `eta`, Alg. 3 DVFS) on `setup` with
/// every layer call wrapped in a span on `tele`.
///
/// # Errors
///
/// Propagates the same configuration, selection, simulation and
/// training errors as the production loop.
pub fn run(
    setup: &FederatedSetup,
    config: &TrainingConfig,
    eta: DecayCoefficient,
    tele: &Telemetry,
) -> Result<TrainingHistory> {
    let lib = Telemetry::disabled();
    let population = setup.population();
    let target = selection_target(population.len(), config.fraction)?;
    let fault_plan = FaultPlan::new(config.faults, config.seed)?;
    let faulted_engine = fault_plan.is_active() || config.degradation.is_active();
    let mut server = Flcc::new(&config.model_dims, derive(config.seed, SeedDomain::Model))?;
    let spec = LocalUpdateSpec {
        learning_rate: config.learning_rate,
        local_epochs: config.local_epochs,
        batch_size: config.batch_size,
    };
    let train_seed = derive(config.seed, SeedDomain::ClientTraining);
    let mut selector = GreedyDecaySelector::new(eta);
    let alive = AliveMask::all_alive(population.len());
    let alive_count = alive.alive_count();
    let mut history = TrainingHistory::new(selector.name());
    let mut cumulative_time = Seconds::ZERO;
    let mut cumulative_energy = Joules::ZERO;
    let workers = worker_threads(config.threads);
    with_trainer_pool(
        workers,
        &config.model_dims,
        setup.clients(),
        setup.eval_set(),
        |pool| {
            for round in 1..=config.max_rounds {
                let round_span = span!(tele, "round", index = round);
                let selected_ids = phase(&round_span, "selection", |s| -> Result<Vec<DeviceId>> {
                    let ctx = SelectionContext {
                        round,
                        devices: DeviceSet::from_slice(population.devices()).with_mask(&alive),
                        payload: config.payload,
                        target: target.min(alive_count),
                    };
                    let ids = selector.select_traced(&ctx, &lib)?;
                    validate_selection(&ctx, &ids)?;
                    s.set("selected", ids.len());
                    Ok(ids)
                })?;
                let selected: Vec<Device> = phase(&round_span, "gather", |_| {
                    selected_ids
                        .iter()
                        .map(|id| *population.get(*id).expect("selection validated above"))
                        .collect()
                });
                let freqs = phase(&round_span, "frequency", |_| {
                    SlackFrequencyPolicy.frequencies_traced(&selected, config.payload, &lib)
                })?;
                let resolved = phase(&round_span, "timeline", |s| -> Result<Resolved> {
                    let resolved = if faulted_engine {
                        let faults: Vec<Option<DeviceFault>> = selected
                            .iter()
                            .map(|d| fault_plan.sample(round, d.id()))
                            .collect();
                        let fr = FaultedRound::simulate(
                            &selected,
                            &freqs,
                            config.payload,
                            &faults,
                            config.degradation.round_deadline,
                        )?;
                        Resolved {
                            delivered_idx: (0..selected_ids.len())
                                .filter(|&i| {
                                    fr.outcome(selected_ids[i]).is_some_and(|o| o.delivered)
                                })
                                .collect(),
                            round_time: fr.round_time(),
                            eq10_time: fr.eq10_bound(),
                            round_energy: fr.total_energy(),
                            compute_energy: fr.compute_energy(),
                            slack: fr.total_slack(),
                            wasted_energy: fr.wasted_energy(),
                            faults: fr.faults_fired(),
                        }
                    } else {
                        let tl = RoundTimeline::simulate(&selected, &freqs, config.payload)?;
                        Resolved {
                            delivered_idx: (0..selected_ids.len()).collect(),
                            round_time: tl.makespan(),
                            eq10_time: tl.eq10_bound(),
                            round_energy: tl.total_energy(),
                            compute_energy: tl.compute_energy(),
                            slack: tl.total_slack(),
                            wasted_energy: Joules::ZERO,
                            faults: 0,
                        }
                    };
                    s.set("delivered", resolved.delivered_idx.len());
                    s.set("faults", resolved.faults);
                    Ok(resolved)
                })?;

                let client_indices: Vec<usize> = resolved
                    .delivered_idx
                    .iter()
                    .map(|&j| selected_ids[j].0)
                    .collect();
                let trained = phase(&round_span, "local_update", |s| {
                    s.set("clients", client_indices.len());
                    s.set(
                        "rows",
                        client_indices
                            .iter()
                            .map(|&c| setup.clients()[c].num_samples())
                            .sum::<usize>(),
                    );
                    let global = server.broadcast();
                    pool.train(
                        round,
                        train_seed,
                        &spec,
                        &global,
                        &client_indices,
                        &lib,
                        "local_update",
                    )
                })?;
                let mut loss_sum = 0.0f64;
                let updates: Vec<(Vec<f32>, f64)> = trained
                    .into_iter()
                    .map(|(params, weight, loss)| {
                        loss_sum += f64::from(loss);
                        (params, weight)
                    })
                    .collect();

                let aggregated = resolved.delivered_idx.len() >= config.degradation.min_quorum
                    && !updates.is_empty();
                phase(&round_span, "aggregate", |s| {
                    s.set("updates", if aggregated { updates.len() } else { 0 });
                    if aggregated {
                        server.aggregate(&updates)
                    } else {
                        Ok(())
                    }
                })?;
                if faulted_engine && !config.degradation.charge_failed_selections {
                    let failed: Vec<DeviceId> = (0..selected_ids.len())
                        .filter(|i| !resolved.delivered_idx.contains(i))
                        .map(|i| selected_ids[i])
                        .collect();
                    if !failed.is_empty() {
                        selector.on_delivery_failure(&failed);
                    }
                }

                cumulative_time += resolved.round_time;
                cumulative_energy += resolved.round_energy;
                let test_accuracy = if round % config.eval_every == 0 || round == config.max_rounds
                {
                    let (_, accuracy) = phase(&round_span, "evaluate", |s| {
                        s.set("rows", setup.eval_set().len());
                        pool.evaluate(&server.broadcast(), &lib)
                    })?;
                    Some(accuracy)
                } else {
                    None
                };
                let train_loss = if updates.is_empty() {
                    0.0
                } else {
                    (loss_sum / updates.len() as f64) as f32
                };
                history.push(RoundRecord {
                    round,
                    delivered: resolved
                        .delivered_idx
                        .iter()
                        .map(|&i| selected_ids[i])
                        .collect(),
                    selected: selected_ids,
                    alive_devices: alive_count,
                    round_time: resolved.round_time,
                    eq10_time: resolved.eq10_time,
                    round_energy: resolved.round_energy,
                    compute_energy: resolved.compute_energy,
                    slack: resolved.slack,
                    wasted_energy: resolved.wasted_energy,
                    faults: resolved.faults,
                    aggregated,
                    train_loss,
                    test_accuracy,
                    cumulative_time,
                    cumulative_energy,
                });
                end(round_span);
            }
            Ok(history)
        },
    )
}
