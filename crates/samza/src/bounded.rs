//! Bounded (historical) job execution: run a job over what its inputs hold
//! now, and return once every task has drained its input and flushed its
//! end-of-input window.
//!
//! Containers are ordinary [`Container`]s — the same ones the cluster runs
//! for continuous jobs — just driven to completion on a pool of scoped
//! threads instead of being scheduled on simulated nodes. The pool is
//! [`largest_first`]: work items are sized before they start and pulled
//! biggest-first, so no core is left with a long tail while another idles.

use crate::config::JobConfig;
use crate::container::Container;
use crate::coordinator::JobModel;
use crate::error::Result;
use crate::task::TaskFactory;
use samzasql_kafka::Broker;
use std::sync::Mutex;

/// Worker threads for `units` independent pieces of work: one per core,
/// never more than there is work, at least one.
pub fn worker_count(units: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.min(units).max(1)
}

/// Run `work` over every `(size, item)` on [`worker_count`] scoped threads.
///
/// Workers pull items from one shared queue in descending size order (ties
/// in input order), so the largest items start first and the small ones
/// fill in behind them. Results come back in input order; if any item
/// fails, the first error in input order is returned (every item still
/// runs). A panicking item re-raises its panic here once all workers have
/// stopped.
pub fn largest_first<T, R, E, F>(items: Vec<(u64, T)>, work: F) -> std::result::Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> std::result::Result<R, E> + Sync,
{
    largest_first_on(worker_count(items.len()), items, work)
}

fn largest_first_on<T, R, E, F>(
    workers: usize,
    items: Vec<(u64, T)>,
    work: F,
) -> std::result::Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> std::result::Result<R, E> + Sync,
{
    let n = items.len();
    let mut queue: Vec<(usize, u64, T)> = items
        .into_iter()
        .enumerate()
        .map(|(i, (size, item))| (i, size, item))
        .collect();
    // Stable: equal sizes keep input order.
    queue.sort_by_key(|&(_, size, _)| std::cmp::Reverse(size));
    let queue = Mutex::new(queue.into_iter().map(|(i, _, item)| (i, item)));
    let (work, queue) = (&work, &queue);
    let mut results: Vec<Option<std::result::Result<R, E>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement, so
                        // the queue is never locked while working.
                        let next = queue.lock().unwrap_or_else(|e| e.into_inner()).next();
                        let Some((i, item)) = next else { break };
                        done.push((i, work(item)));
                    }
                    done
                })
            })
            .collect();
        for worker in pool {
            let done = worker
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, result) in done {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// Run `config`'s job to the end of its inputs' current contents.
///
/// The job is planned with one container per task (the config's own
/// container count is ignored), and each container is sized by its input
/// records — `end_offset − start_offset` summed over its tasks' input
/// partitions. The containers then run on [`largest_first`], one worker per
/// core: each worker builds the container it pulls (its series land in the
/// broker's registry), drives it with [`Container::run_until_caught_up`] and
/// finishes with one [`Container::window_all`] for end-of-input flushing.
/// Every container
/// has finished when this returns. The first error in container
/// (partition) order is returned; a panicking container re-raises its panic
/// here.
pub fn run_bounded(broker: &Broker, config: JobConfig, factory: &dyn TaskFactory) -> Result<()> {
    // One container per task; planning caps the count at the task count.
    let config = config.containers(u32::MAX);
    let model = JobModel::plan(&config, broker)?;
    let mut sized = Vec::with_capacity(model.containers.len());
    for cm in model.containers {
        let mut records = 0;
        for tp in cm.tasks.iter().flat_map(|t| &t.input_partitions) {
            records += broker.end_offset(&tp.topic, tp.partition)?
                - broker.start_offset(&tp.topic, tp.partition)?;
        }
        sized.push((records, cm));
    }
    largest_first(sized, |cm| {
        let mut container = Container::new(broker.clone(), config.clone(), cm, factory)?;
        container.run_until_caught_up()?;
        container.window_all()
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_worker_visits_items_largest_first() {
        let visited = Mutex::new(Vec::new());
        let items = vec![(3, 'a'), (9, 'b'), (0, 'c'), (9, 'd'), (5, 'e')];
        largest_first_on(1, items, |c| {
            visited.lock().unwrap().push(c);
            Ok::<_, ()>(())
        })
        .unwrap();
        // Descending size; the two 9s keep their input order.
        assert_eq!(visited.into_inner().unwrap(), vec!['b', 'd', 'e', 'a', 'c']);
    }

    #[test]
    fn results_come_back_in_input_order() {
        for workers in [1, 2, 4] {
            let items: Vec<(u64, u64)> = (0..20).map(|i| ((i * 7) % 11, i)).collect();
            let out = largest_first_on(workers, items, |i| Ok::<_, ()>(i * 10)).unwrap();
            assert_eq!(out, (0..20).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn first_error_in_input_order_is_returned() {
        // Item 1 is visited last (smallest) but still wins over item 3.
        let items = vec![(5, 0), (1, 1), (5, 2), (9, 3)];
        for workers in [1, 2] {
            let err = largest_first_on(workers, items.clone(), |i| {
                if i % 2 == 1 {
                    Err(format!("item {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "item 1");
        }
    }

    #[test]
    fn every_item_runs_even_after_an_error() {
        let ran = Mutex::new(0);
        let items: Vec<(u64, u32)> = (0..8).map(|i| (i as u64, i)).collect();
        let _ = largest_first_on(2, items, |i| {
            *ran.lock().unwrap() += 1;
            if i == 7 {
                Err(())
            } else {
                Ok(())
            }
        });
        assert_eq!(ran.into_inner().unwrap(), 8);
    }

    #[test]
    #[should_panic(expected = "item blew up")]
    fn a_panicking_item_re_raises() {
        let items: Vec<(u64, u32)> = (0..6).map(|i| (i as u64, i)).collect();
        let _ = largest_first_on(2, items, |i| {
            if i == 2 {
                panic!("item blew up");
            }
            Ok::<_, ()>(i)
        });
    }

    #[test]
    fn no_items_is_an_empty_result() {
        let out = largest_first(Vec::<(u64, ())>::new(), |_| Ok::<u8, ()>(0)).unwrap();
        assert!(out.is_empty());
    }
}
