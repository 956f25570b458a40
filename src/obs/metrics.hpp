// Live metrics plane: a pull-model registry that aggregates the runtime's
// existing lock-free state (WorkerStats, flow-cache counters, publisher
// epochs, OFP server session stats) into Prometheus text and JSON on
// demand — the read side of the stats endpoint src/ofp/server serves.
//
// Design:
//   - The values are the OWNING subsystem's own atomics, updated on its
//     own cadence; nothing on a hot path ever touches the registry. A
//     scrape is the only place values are read.
//   - Providers are callbacks registered by subsystems (the runtime, the
//     OFP server, the flight recorder); each scrape invokes every provider
//     with a MetricsBuilder and renders whatever it emitted. RAII handles
//     unregister on destruction, so a dying runtime can never leave a
//     dangling callback behind — the classic crash mode of callback
//     registries.
//   - Thread-safety: register/unregister/scrape serialize on one mutex;
//     provider callbacks run under it (scrapes are rare and read atomics,
//     so the critical section is microseconds).
//
// Exposition: render_prometheus() emits the text format (one # HELP/# TYPE
// pair per family, samples with optional pre-rendered labels);
// render_json() the same samples as a JSON array. Histograms are exported
// by their owners as quantile-labelled gauge samples (the LogHistogram
// already answers quantile()), so the registry needs no histogram type.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ofmtl::obs {

/// What one provider emits during a scrape. `labels` is the pre-rendered
/// Prometheus label body WITHOUT braces (e.g. `worker="3"`), empty for an
/// unlabelled sample — providers own their label vocabulary.
class MetricsBuilder {
 public:
  void counter(std::string_view family, std::string_view help, double value,
               std::string_view labels = {});
  void gauge(std::string_view family, std::string_view help, double value,
             std::string_view labels = {});

 private:
  friend class MetricsRegistry;
  struct Sample {
    std::string family;
    std::string help;
    bool is_counter = false;
    double value = 0;
    std::string labels;
  };
  std::vector<Sample> samples_;
};

/// Pull-model registry; see the file comment for the concurrency contract.
class MetricsRegistry {
 public:
  using Provider = std::function<void(MetricsBuilder&)>;

  /// Unregisters its provider on destruction (move-only). Outliving the
  /// registry is harmless — the handle holds an epoch, not a pointer into
  /// live registry state it could corrupt.
  class ProviderHandle {
   public:
    ProviderHandle() = default;
    ProviderHandle(ProviderHandle&& other) noexcept;
    ProviderHandle& operator=(ProviderHandle&& other) noexcept;
    ProviderHandle(const ProviderHandle&) = delete;
    ProviderHandle& operator=(const ProviderHandle&) = delete;
    ~ProviderHandle();
    void reset();

   private:
    friend class MetricsRegistry;
    MetricsRegistry* registry_ = nullptr;
    std::uint64_t id_ = 0;
  };

  [[nodiscard]] ProviderHandle register_provider(Provider provider);

  /// Prometheus text exposition format (text/plain; version=0.0.4).
  [[nodiscard]] std::string render_prometheus();
  /// The same samples as a JSON array of {name, type, labels, value}.
  [[nodiscard]] std::string render_json();

  /// Providers currently registered (tests / the stats endpoint).
  [[nodiscard]] std::size_t provider_count();

 private:
  void unregister(std::uint64_t id);
  [[nodiscard]] std::vector<MetricsBuilder::Sample> scrape();

  struct Entry {
    std::uint64_t id = 0;
    Provider provider;
  };
  std::mutex mutex_;
  std::vector<Entry> entries_;
  std::uint64_t next_id_ = 1;
};

/// The process-wide registry the stats endpoint serves.
[[nodiscard]] MetricsRegistry& default_registry();

}  // namespace ofmtl::obs
