#include "spans.h"

#include <algorithm>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <memory>

namespace bench {

uint32_t
SpanRecorder::layer(std::string_view name)
{
    for (uint32_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return i;
    names_.emplace_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t
SpanRecorder::add(uint32_t layer, uint64_t request, uint32_t parent,
                  int64_t startNs, int64_t endNs)
{
    spans_.push_back(Span{layer, parent, request, startNs, endNs});
    return static_cast<uint32_t>(spans_.size() - 1);
}

uint32_t
SpanRecorder::begin(uint32_t layer, uint64_t request, uint32_t parent)
{
    int64_t t = nowNs();
    return add(layer, request, parent, t, t);
}

std::map<std::string, LayerTime>
SpanRecorder::layerTimes() const
{
    std::vector<int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent != Span::kNoParent)
            childNs[s.parent] += s.endNs - s.startNs;

    std::map<std::string, LayerTime> out;
    for (const std::string &name : names_)
        out[name].layer = name;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        LayerTime &lt = out[names_[s.layer]];
        int64_t dur = s.endNs - s.startNs;
        ++lt.spans;
        lt.totalNs += dur;
        lt.selfNs += dur - childNs[i];
    }
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               uint64_t maxRequests) const
{
    std::unique_ptr<FILE, int (*)(FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    int64_t origin = INT64_MAX;
    for (const Span &s : spans_)
        origin = std::min(origin, s.startNs);
    std::fputs("{\"traceEvents\":[\n", f.get());
    bool first = true;
    for (const Span &s : spans_) {
        if (s.request >= maxRequests)
            continue;
        std::fprintf(f.get(),
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"request\":%" PRIu64 "}}",
                     first ? "" : ",\n", names_[s.layer].c_str(),
                     s.request, (s.startNs - origin) / 1e3,
                     (s.endNs - s.startNs) / 1e3, s.request);
        first = false;
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f.get());
    return std::ferror(f.get()) == 0;
}

} // namespace bench
